(* The shared daemon shell (see daemon.mli for the thread architecture). *)

let src = Logs.Src.create "galatex.daemon" ~doc:"GalaTex daemon shell"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  socket_path : string;
  workers : int;
  queue_limit : int;
  retry_after_ms : int;
  recv_timeout : float;
  idle_timeout : float;
  tick_interval : float;
  on_request : unit -> unit;
}

type t = {
  cfg : config;
  role : string;
  listen_fd : Unix.file_descr;
  lock : Mutex.t;  (** guards queue, draining, stopped *)
  nonempty : Condition.t;
  queue : Unix.file_descr Queue.t;
  mutable draining : bool;  (** shutdown drain has begun *)
  mutable stopped : bool;
  done_cond : Condition.t;
  stop_flag : bool Atomic.t;
  (* counters: atomics so workers never contend on the queue lock *)
  accepted : int Atomic.t;
  shed : int Atomic.t;
  shed_shutdown : int Atomic.t;
  client_errors : int Atomic.t;
  slow_client_disconnects : int Atomic.t;
  mutable accept_thread : Thread.t option;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let create ~role cfg =
  Netio.ignore_sigpipe ();
  (try
     if Sys.file_exists cfg.socket_path then Unix.unlink cfg.socket_path
   with Unix.Unix_error _ | Sys_error _ -> ());
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
     Unix.listen listen_fd 64
   with Unix.Unix_error (e, fn, _) ->
     close_quietly listen_fd;
     Xquery.Errors.raise_error Xquery.Errors.FODC0002
       "%s cannot listen on %s: %s: %s" role cfg.socket_path fn
       (Unix.error_message e));
  {
    cfg;
    role;
    listen_fd;
    lock = Mutex.create ();
    nonempty = Condition.create ();
    queue = Queue.create ();
    draining = false;
    stopped = false;
    done_cond = Condition.create ();
    stop_flag = Atomic.make false;
    accepted = Atomic.make 0;
    shed = Atomic.make 0;
    shed_shutdown = Atomic.make 0;
    client_errors = Atomic.make 0;
    slow_client_disconnects = Atomic.make 0;
    accept_thread = None;
  }

let draining t = locked t (fun () -> t.draining)

let counters t =
  [
    ("accepted", Atomic.get t.accepted);
    ("shed", Atomic.get t.shed);
    ("shed_shutdown", Atomic.get t.shed_shutdown);
    ("client_errors", Atomic.get t.client_errors);
    ("slow_client_disconnects", Atomic.get t.slow_client_disconnects);
    ("queue_depth", locked t (fun () -> Queue.length t.queue));
    ("workers", t.cfg.workers);
  ]

let failure exn = Protocol.Failure (Protocol.error_of (Xquery.Errors.wrap_exn exn))

(* ------------------------------------------------------------------ *)
(* Per-connection I/O.                                                 *)

(* Per-connection I/O bounds: the whole of one framed read or write must
   finish within [recv_timeout], and bytes must keep moving at least
   every [idle_timeout] seconds (handshake timeout / byte-rate floor). *)
let conn_limits t = Netio.within ~idle:t.cfg.idle_timeout t.cfg.recv_timeout

let send t fd resp =
  try Protocol.write_frame ~limits:(conn_limits t) fd (Protocol.encode_response resp)
  with
  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.ESHUTDOWN), _, _) ->
      (* the client vanished mid-response: its problem, not ours *)
      Atomic.incr t.client_errors
  | Xquery.Errors.Error { code = Xquery.Errors.GTLX0014; _ } ->
      (* the client stopped reading mid-reply: abandoning the write frees
         the worker a stalled peer would otherwise pin forever *)
      Atomic.incr t.slow_client_disconnects;
      Log.debug (fun m -> m "dropping slow client: reply write deadline expired")

let overload t ~reason ~depth =
  let e =
    Xquery.Errors.make Xquery.Errors.GTLX0009
      (Printf.sprintf "%s overloaded (%s): queue depth %d, retry after %d ms"
         t.role reason depth t.cfg.retry_after_ms)
  in
  Protocol.Failure
    (Protocol.error_of ~retry_after_ms:t.cfg.retry_after_ms ~queue_depth:depth e)

let unless_draining t f =
  if draining t then begin
    Atomic.incr t.shed_shutdown;
    overload t ~reason:"shutting down" ~depth:0
  end
  else f ()

(* Answer a connection that will never reach a worker, then close it. *)
let shed_connection t fd counter ~reason ~depth =
  Atomic.incr counter;
  send t fd (overload t ~reason ~depth);
  close_quietly fd

let drop t reason =
  Atomic.incr t.client_errors;
  Log.debug (fun m -> m "dropping connection: %s" reason)

let serve_connection t handle fd =
  Fun.protect
    ~finally:(fun () -> close_quietly fd)
    (fun () ->
      t.cfg.on_request ();
      match Protocol.read_frame ~limits:(conn_limits t) fd with
      | Error reason -> drop t reason
      | exception Xquery.Errors.Error { code = Xquery.Errors.GTLX0014; _ } ->
          (* request read deadline / idle bound expired: a mute or
             slow-loris client — it never gets to pin the worker *)
          drop t "request read deadline expired"
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          drop t "receive timeout"
      | exception Unix.Unix_error (e, _, _) -> drop t (Unix.error_message e)
      | Ok data ->
          let resp =
            match Protocol.decode_request data with
            | Error reason ->
                Atomic.incr t.client_errors;
                Protocol.Failure
                  (Protocol.error_of
                     (Xquery.Errors.make Xquery.Errors.XPST0003
                        ("malformed request: " ^ reason)))
            | Ok req -> ( try handle req with exn -> failure exn)
          in
          send t fd resp)

let worker_loop t handle =
  let rec loop () =
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not t.draining do
      Condition.wait t.nonempty t.lock
    done;
    if Queue.is_empty t.queue then
      (* draining and nothing left: the pool winds down *)
      Mutex.unlock t.lock
    else begin
      let fd = Queue.pop t.queue in
      Mutex.unlock t.lock;
      (try serve_connection t handle fd
       with exn ->
         (* absolute backstop: a worker never dies *)
         Atomic.incr t.client_errors;
         Log.err (fun m ->
             m "worker absorbed an exception: %s" (Printexc.to_string exn)));
      loop ()
    end
  in
  loop ()

let ticker_loop t tick =
  while not (Atomic.get t.stop_flag) do
    (try if not (draining t) then tick ()
     with exn ->
       Log.err (fun m ->
           m "maintenance absorbed an exception: %s" (Printexc.to_string exn)));
    Thread.delay t.cfg.tick_interval
  done

(* ------------------------------------------------------------------ *)
(* Accept loop: admission control, then the shutdown drain.            *)

let admit t client =
  (* no SO_RCVTIMEO: per-connection bounds are enforced end-to-end by
     Netio limits in [serve_connection] — a per-syscall timeout cannot
     stop a slow-loris peer that dribbles one byte per interval *)
  Atomic.incr t.accepted;
  Mutex.lock t.lock;
  if t.draining then begin
    Mutex.unlock t.lock;
    shed_connection t client t.shed_shutdown ~reason:"shutting down" ~depth:0
  end
  else if Queue.length t.queue >= t.cfg.queue_limit then begin
    let depth = Queue.length t.queue in
    Mutex.unlock t.lock;
    shed_connection t client t.shed ~reason:"queue full" ~depth
  end
  else begin
    Queue.add client t.queue;
    Condition.signal t.nonempty;
    Mutex.unlock t.lock
  end

let shutdown_drain t threads =
  let stragglers =
    locked t (fun () ->
        t.draining <- true;
        let fds = List.of_seq (Queue.to_seq t.queue) in
        Queue.clear t.queue;
        Condition.broadcast t.nonempty;
        fds)
  in
  (* queued-but-unserved connections are answered, not abandoned *)
  List.iter
    (fun fd ->
      shed_connection t fd t.shed_shutdown ~reason:"shutting down" ~depth:0)
    stragglers;
  List.iter Thread.join threads;
  close_quietly t.listen_fd;
  (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ | Sys_error _ -> ());
  locked t (fun () ->
      t.stopped <- true;
      Condition.broadcast t.done_cond);
  Log.info (fun m -> m "%s shutdown complete" t.role)

let accept_loop t threads =
  let rec loop () =
    if Atomic.get t.stop_flag then ()
    else begin
      (match Unix.select [ t.listen_fd ] [] [] 0.05 with
      | [ _ ], _, _ -> (
          match Unix.accept ~cloexec:true t.listen_fd with
          | client, _ -> admit t client
          | exception
              Unix.Unix_error
                ( ( Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK
                  | Unix.ECONNABORTED ),
                  _,
                  _ ) ->
              ())
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  (try loop ()
   with exn ->
     Log.err (fun m ->
         m "accept loop absorbed an exception: %s" (Printexc.to_string exn)));
  shutdown_drain t threads

(* ------------------------------------------------------------------ *)
(* Lifecycle.                                                          *)

let run t ~handle ~tick =
  let workers =
    List.init (max 1 t.cfg.workers) (fun _ -> Thread.create (worker_loop t) handle)
  in
  let ticker = Thread.create (ticker_loop t) tick in
  t.accept_thread <-
    Some (Thread.create (fun () -> accept_loop t (workers @ [ ticker ])) ())

let request_shutdown t = Atomic.set t.stop_flag true

let wait t =
  Mutex.lock t.lock;
  while not t.stopped do
    Condition.wait t.done_cond t.lock
  done;
  Mutex.unlock t.lock;
  match t.accept_thread with Some th -> Thread.join th | None -> ()

let stop t =
  request_shutdown t;
  wait t
