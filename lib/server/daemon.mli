(** The daemon shell shared by [galatex serve] ({!Server}) and
    [galatex route] ([Galatex_cluster.Router]): everything about serving
    framed requests on a Unix-domain socket that does not depend on what
    the requests mean.

    Thread architecture:

      accept thread   select/accept loop; admission control (bounded queue
                      of accepted connections, shedding with [GTLX0009]
                      when full); performs the shutdown drain and joins
                      the workers and the ticker.
      ticker thread   calls the role's [tick] every [tick_interval]
                      seconds while not draining, OFF both the accept and
                      request paths — so an {e idle} daemon still runs its
                      maintenance (reloads, compaction, replication pulls,
                      failover sweeps).
      worker pool     each worker pops one connection, reads one framed
                      request under {!Netio} bounds, hands it to the
                      role's [handle], writes one framed response, closes.
                      Every failure mode — torn frame, malformed request,
                      a raising handler, vanished or stalled client — is
                      absorbed and counted; a worker never dies.

    A role creates its daemon first ({!create} binds the socket), builds
    its own state around it, then starts it with {!run}: the handler can
    close over role state that holds the daemon.

    Signal handlers must not take locks (the main thread may hold them),
    so {!request_shutdown} only flips an atomic; the accept loop notices
    within one select tick. *)

type config = {
  socket_path : string;
  workers : int;  (** worker threads (at least one runs) *)
  queue_limit : int;  (** queued connections before shedding *)
  retry_after_ms : int;  (** hint carried by shed responses *)
  recv_timeout : float;
      (** per-connection I/O deadline (seconds) for one framed request
          read and, separately, one reply write *)
  idle_timeout : float;
      (** per-connection progress bound (seconds): the handshake timeout
          and byte-rate floor against slow-loris clients *)
  tick_interval : float;  (** ticker period in seconds *)
  on_request : unit -> unit;
      (** test hook, called by a worker as it picks up a connection —
          tests park workers on a gate here to fill the queue
          deterministically *)
}

type t

val create : role:string -> config -> t
(** Ignore SIGPIPE (a write to a vanished client must be [EPIPE], not a
    process kill), replace a stale socket file, bind and listen.  No
    thread runs yet.  [role] ("server", "router") names the daemon in
    shed messages and logs.
    @raise Xquery.Errors.Error [FODC0002] when the socket cannot be bound. *)

val run :
  t ->
  handle:(Protocol.request -> Protocol.response) ->
  tick:(unit -> unit) ->
  unit
(** Spawn the worker pool, the ticker and the accept thread, and return.
    An exception escaping [handle] becomes one structured [Failure]
    reply; one escaping [tick] is logged and the ticker carries on. *)

val draining : t -> bool
(** The shutdown drain has begun. *)

val unless_draining : t -> (unit -> Protocol.response) -> Protocol.response
(** [f ()], or — once draining — the "shutting down" [GTLX0009] reply,
    counted in [shed_shutdown].  Guards the requests that must not start
    work a drain would cut short (updates, reloads, promotions). *)

val failure : exn -> Protocol.response
(** The structured [Failure] reply for an exception, via
    {!Xquery.Errors.wrap_exn}. *)

val counters : t -> (string * int) list
(** The shell's counters, spliced into each role's stats: [accepted],
    [shed], [shed_shutdown], [client_errors] (torn, mute, malformed or
    vanished clients), [slow_client_disconnects] (reply writes abandoned
    on an expired deadline), [queue_depth] and [workers]. *)

val request_shutdown : t -> unit
(** Begin graceful shutdown: stop accepting, answer queued stragglers
    with the "shutting down" [GTLX0009], let in-flight requests finish,
    join every thread and unlink the socket.  Async-signal-safe. *)

val wait : t -> unit
(** Block until shutdown completes.  Only returns for a daemon that was
    {!run}. *)

val stop : t -> unit
(** [request_shutdown] then [wait]. *)
