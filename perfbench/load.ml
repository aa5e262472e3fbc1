(* The load generator: at most [nproc] sender threads, one request per
   connection (the daemon protocol's discipline).

   Open loop: events are due on a fixed schedule; a sender takes the next
   event, sleeps until it is due, and sends it.  Latency is charged from
   the due instant, so waiting behind a slow request counts.  A sender
   that was idle when an event fell due records how late it actually
   dispatched it: the generator's own lateness, which decides whether a
   run is valid.

   Closed loop: each connection sends its next query as soon as the
   previous reply arrives. *)

module Proto = Galatex_server.Protocol
module Netio = Galatex_server.Netio

type outcome = {
  req : int;  (** request id shared by the exchange's spans *)
  index : int;  (** event index within its phase *)
  due : float;  (** absolute due instant (closed loop: send instant) *)
  start : float;  (** send instant *)
  finish : float;  (** reply instant *)
  late : float option;  (** dispatch lateness of an idle sender *)
  request : Proto.request;
  reply : (Proto.response, string) result;
  reply_bytes : int;
  traced : bool;
}

let next_req = Atomic.make 0
let fresh_req () = Atomic.fetch_and_add next_req 1

(* One framed round trip, with a span around each layer the client
   crosses: connect, encode, send, wait for the reply, decode. *)
let exchange ?(spans = Spans.disabled) ?(req = fresh_req ()) ~timeout ~socket_path request =
  Spans.with_span spans ~req "request" (fun parent ->
      let span name f = Spans.with_span spans ~parent ~req name (fun _ -> f ()) in
      let limits = Netio.within timeout in
      match span "client.connect" (fun () -> Netio.connect ~limits socket_path) with
      | exception Unix.Unix_error (e, fn, _) ->
          (Error (Printf.sprintf "%s: %s" fn (Unix.error_message e)), 0)
      | exception Xquery.Errors.Error e -> (Error e.Xquery.Errors.message, 0)
      | fd ->
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              let frame =
                span "protocol.encode_request" (fun () -> Proto.encode_request request)
              in
              (* a shed reply may arrive before the request is read *)
              (try
                 span "client.send" (fun () ->
                     Proto.write_frame ~limits fd frame;
                     Unix.shutdown fd Unix.SHUTDOWN_SEND)
               with
              | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.ESHUTDOWN), _, _)
              | Xquery.Errors.Error _ ->
                  ());
              match span "client.await_reply" (fun () -> Proto.read_frame ~limits fd) with
              | Ok data ->
                  ( span "protocol.decode_response" (fun () -> Proto.decode_response data),
                    String.length data )
              | Error reason -> (Error reason, 0)
              | exception Xquery.Errors.Error e -> (Error e.Xquery.Errors.message, 0)
              | exception Unix.Unix_error (e, fn, _) ->
                  (Error (Printf.sprintf "%s: %s" fn (Unix.error_message e)), 0)))

let sleep_until t =
  let d = t -. Unix.gettimeofday () in
  if d > 0. then Thread.delay d

(* Send one request now and record its outcome; [idle]: the sender was
   waiting for [due], so any delay past it is the generator's own. *)
let send ~spans ~traced ~timeout ~socket_path ~index ~due ~idle request =
  let req = fresh_req () in
  let start = Unix.gettimeofday () in
  let reply, reply_bytes =
    exchange ~spans:(if traced then spans else Spans.disabled) ~req ~timeout ~socket_path request
  in
  {
    req;
    index;
    due = Option.value due ~default:start;
    start;
    finish = Unix.gettimeofday ();
    late = (match due with Some d when idle -> Some (start -. d) | _ -> None);
    request;
    reply;
    reply_bytes;
    traced;
  }

(* [trace_every]: every n-th event is sent with [spans] recording (0 =
   none), so one traced run also yields untraced samples to compare. *)
let open_loop ~senders ~timeout ~socket_path ?(spans = Spans.disabled)
    ?(trace_every = 0) ~request_of (events : Inputs.event array) =
  let n = Array.length events in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let t0 = Unix.gettimeofday () +. 0.05 in
  let rec sender () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      let due = t0 +. events.(i).Inputs.due in
      let idle = Unix.gettimeofday () < due in
      sleep_until due;
      results.(i) <-
        Some
          (send ~spans ~traced:(trace_every > 0 && i mod trace_every = 0) ~timeout ~socket_path
             ~index:i ~due:(Some due) ~idle (request_of events.(i).Inputs.op));
      sender ()
    end
  in
  List.iter Thread.join (List.init senders (fun _ -> Thread.create sender ()));
  Array.map Option.get results

(* Cycles through [ops] until [duration] has passed, then finishes the
   current round of [round] ops, so every run sends whole rounds. *)
let closed_loop ~conns ~timeout ~socket_path ?(spans = Spans.disabled)
    ~duration ~round ~request_of (ops : Inputs.op array) =
  let lock = Mutex.create () and results = ref [] in
  let cursor = ref 0 and limit = ref max_int in
  let stop_at = Unix.gettimeofday () +. duration in
  (* the next op index, or None once the last round is handed out *)
  let take () =
    Mutex.lock lock;
    if !limit = max_int && Unix.gettimeofday () >= stop_at then
      limit := (!cursor + round - 1) / round * round;
    let j = !cursor in
    let r = if j < !limit then (incr cursor; Some j) else None in
    Mutex.unlock lock;
    r
  in
  let rec conn k =
    match take () with
    | None -> ()
    | Some j ->
        let o =
          send ~spans ~traced:(k = 0) ~timeout ~socket_path ~index:j ~due:None ~idle:false
            (request_of ops.(j mod Array.length ops))
        in
        Mutex.lock lock;
        results := o :: !results;
        Mutex.unlock lock;
        conn k
  in
  List.iter Thread.join (List.init conns (fun k -> Thread.create conn k));
  Array.of_list (List.rev !results)
