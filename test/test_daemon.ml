(* The daemon shell's contract, driven with a stub handler (no engine):

   1. admission control: a full queue sheds the next connection at once
      with GTLX0009 carrying the queue depth and a retry-after hint;
   2. graceful shutdown: queued stragglers each get the "shutting down"
      GTLX0009 without waiting for the (parked) workers, the in-flight
      request still finishes, and the socket file is removed;
   3. hostile clients: a torn frame and a garbage payload both count as
      client_errors, and the garbage gets a structured err:XPST0003;
   4. the handler boundary: a raising handler costs one Failure reply,
      and the next request is served normally.

   Workers are parked deterministically on the [on_request] gate hook
   shared with test_server.ml. *)

open Galatex_server
open Test_server

(* Echo the query text back; "boom" raises inside the handler. *)
let stub_handle = function
  | Protocol.Query q when q.Protocol.query = "boom" -> failwith "boom"
  | Protocol.Query q ->
      Protocol.Value
        {
          Protocol.items = [ q.Protocol.query ];
          strategy_used = "stub";
          fell_back = false;
          steps = 0;
          generation = 0;
          seq = 0;
          partial = None;
        }
  | _ -> Protocol.Slowlog_reply []

let with_daemon ?(workers = 1) ?(queue_limit = 4) ?(on_request = ignore) f =
  let sock = fresh_name "dmn" ^ ".sock" in
  let d =
    Daemon.create ~role:"stub"
      {
        Daemon.socket_path = sock;
        workers;
        queue_limit;
        retry_after_ms = 30;
        recv_timeout = 2.0;
        idle_timeout = 1.0;
        tick_interval = 0.02;
        on_request;
      }
  in
  Daemon.run d ~handle:stub_handle ~tick:ignore;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists sock then Daemon.stop d)
    (fun () -> f sock d)

let counter d key =
  match List.assoc_opt key (Daemon.counters d) with
  | Some v -> v
  | None -> Alcotest.failf "daemon counter %s missing" key

let ask sock text =
  Client.request ~socket_path:sock
    (Protocol.Query (Protocol.query_request text))

let spawn_ask sock text =
  let r = ref (Error "pending") in
  (Thread.create (fun () -> r := ask sock text) (), r)

let echoed what text r =
  Alcotest.(check (list string)) what [ text ] (ok_value what r).Protocol.items

let test_queue_full_sheds () =
  let g = gate () in
  with_daemon ~queue_limit:1 ~on_request:(gate_hook g) (fun sock d ->
      let t1, r1 = spawn_ask sock "one" in
      poll "worker parked" (fun () -> Atomic.get g.picked = 1);
      let t2, r2 = spawn_ask sock "two" in
      poll "queue filled" (fun () -> counter d "queue_depth" = 1);
      let e = ok_failure "shed" (ask sock "three") in
      Alcotest.(check string) "shed code" "gtlx:GTLX0009" e.Protocol.code;
      Alcotest.(check (option int)) "queue depth carried" (Some 1)
        e.Protocol.queue_depth;
      Alcotest.(check (option int)) "retry hint carried" (Some 30)
        e.Protocol.retry_after_ms;
      Alcotest.(check int) "shed counted" 1 (counter d "shed");
      open_gate g;
      Thread.join t1;
      Thread.join t2;
      echoed "parked request served" "one" !r1;
      echoed "queued request served" "two" !r2)

let test_stop_answers_stragglers () =
  let g = gate () in
  with_daemon ~on_request:(gate_hook g) (fun sock d ->
      let t1, r1 = spawn_ask sock "in-flight" in
      poll "worker parked" (fun () -> Atomic.get g.picked = 1);
      let queued = List.map (spawn_ask sock) [ "a"; "b" ] in
      poll "two queued" (fun () -> counter d "queue_depth" = 2);
      Daemon.request_shutdown d;
      poll "stragglers answered" (fun () -> counter d "shed_shutdown" = 2);
      Alcotest.(check bool) "draining" true (Daemon.draining d);
      open_gate g;
      Daemon.wait d;
      List.iter
        (fun (th, r) ->
          Thread.join th;
          let e = ok_failure "straggler" !r in
          Alcotest.(check string) "straggler shed" "gtlx:GTLX0009"
            e.Protocol.code;
          Alcotest.(check bool) "says shutting down" true
            (contains "shutting down" e.Protocol.message))
        queued;
      Thread.join t1;
      echoed "in-flight request finished" "in-flight" !r1;
      Alcotest.(check bool) "socket removed" false (Sys.file_exists sock))

let test_torn_and_garbage_frames () =
  with_daemon (fun sock d ->
      (* a torn client: the header promises 100 bytes, 10 arrive, EOF *)
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock);
      ignore (Unix.write_substring fd "\x64\x00\x00\x00ten bytes!" 0 14);
      Unix.close fd;
      poll "torn frame counted" (fun () -> counter d "client_errors" = 1);
      (* a well-framed garbage payload: a structured static error *)
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock);
      Protocol.write_frame fd "ZZZZ-not-a-request";
      (match Protocol.read_frame fd with
      | Ok data -> (
          match Protocol.decode_response data with
          | Ok (Protocol.Failure e) ->
              Alcotest.(check string) "malformed code" "err:XPST0003"
                e.Protocol.code
          | _ -> Alcotest.fail "expected a structured failure")
      | Error e -> Alcotest.failf "no reply to a garbage payload: %s" e);
      Unix.close fd;
      Alcotest.(check int) "garbage counted" 2 (counter d "client_errors");
      echoed "still serving" "after" (ask sock "after"))

let test_raising_handler () =
  with_daemon (fun sock _d ->
      (match ask sock "boom" with
      | Ok (Protocol.Failure _) -> ()
      | Ok _ -> Alcotest.fail "a raising handler must answer a Failure"
      | Error e -> Alcotest.failf "transport error: %s" e);
      echoed "next request served" "next" (ask sock "next"))

let tests =
  [
    Alcotest.test_case "queue full sheds GTLX0009" `Quick test_queue_full_sheds;
    Alcotest.test_case "stop answers queued stragglers" `Quick
      test_stop_answers_stragglers;
    Alcotest.test_case "torn and garbage frames" `Quick
      test_torn_and_garbage_frames;
    Alcotest.test_case "raising handler" `Quick test_raising_handler;
  ]
