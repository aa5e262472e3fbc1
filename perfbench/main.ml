(* perfbench: run one named workload against out-of-process galatex
   daemons and print its metrics.

     main.exe --workload NAME --seed N --seconds N --trace 0|1
              [--galatex PATH] [--workdir DIR]

   A run is several trials.  Each sets the topology up afresh, then
   measures an open-loop phase at the workload's fixed rate, a
   closed-loop phase with [nproc] connections and an update phase; every
   answer is checked against an in-process oracle.  The last line of
   standard output is one JSON object: the end-to-end metrics, or with
   [--trace 1] the per-layer metrics of a traced run. *)

module Proto = Galatex_server.Protocol

let now = Unix.gettimeofday
let nproc = max 1 (Domain.recommended_domain_count ())

(* A run is this many trials, each on freshly started daemons.  How fast
   one daemon process runs depends on where its code and heap landed in
   memory, by up to a fifth on the same inputs; the trials average that
   out. *)
let trials = 5
let request_timeout = 20.

(* A run whose generator dispatched its p99 event later than this is not
   scored: the client, not the system, set the timings. *)
let max_late_p99_ms = 25.

(* ------------------------------------------------------------ topology *)

type topo = {
  front : string;  (** the socket clients talk to *)
  shard_socks : string array;
  daemons : int list;
  snapshot_bytes : int;
  source_bytes : int;
  setup_wall_s : float;
  setup_cpu_s : float;  (** CPU of [galatex index] and of each daemon up to its first reply *)
}

let ( / ) = Filename.concat

let setup ~galatex ~root (inputs : Inputs.t) k =
  let w = inputs.Inputs.workload in
  let t0 = now () in
  let dir = root / Printf.sprintf "setup-%d" k in
  let docs = dir / "docs" and log = dir / "daemons.log" in
  Procs.mkdir_p docs;
  let sources = Inputs.corpus_of w ~seed:inputs.Inputs.seed in
  let files =
    List.map
      (fun (uri, src) ->
        Procs.write_file (docs / uri) src;
        docs / uri)
      sources
  in
  let snap = dir / "snap" in
  let shard_args = if w.Inputs.shards > 1 then [ "--shards"; string_of_int w.shards ] else [] in
  let children_cpu () =
    let t = Unix.times () in
    t.Unix.tms_cutime +. t.Unix.tms_cstime
  in
  let cpu0 = children_cpu () in
  (match
     Procs.run ~log galatex
       ((("index" :: List.concat_map (fun f -> [ "-d"; f ]) files) @ [ "--output"; snap ])
       @ shard_args)
   with
  | Ok () -> ()
  | Error e -> failwith ("galatex index: " ^ e));
  let index_cpu_s = children_cpu () -. cpu0 in
  let snap_dirs =
    if w.shards = 1 then [| snap |]
    else Array.init w.shards (fun i -> snap / Printf.sprintf "shard-%d" i)
  in
  let snapshot_bytes = Procs.dir_bytes snap in
  let shard_socks = Array.mapi (fun i _ -> dir / Printf.sprintf "s%d.sock" i) snap_dirs in
  let shard_pids =
    Array.to_list
      (Array.mapi
         (fun i d ->
           Procs.spawn ~log galatex
             [ "serve"; "--index"; d; "--socket"; shard_socks.(i); "-q" ])
         snap_dirs)
  in
  let front, daemons =
    if w.shards = 1 then (shard_socks.(0), shard_pids)
    else
      let rt = dir / "rt.sock" in
      let shard_flags =
        List.concat_map (fun s -> [ "--shard"; s ]) (Array.to_list shard_socks)
      in
      ( rt,
        shard_pids
        @ [ Procs.spawn ~log galatex (("route" :: shard_flags) @ [ "--socket"; rt; "-q" ]) ] )
  in
  Array.iter
    (fun s -> match Procs.await_health s with Ok () -> () | Error e -> failwith e)
    (Array.append shard_socks [| front |]);
  {
    front;
    shard_socks;
    daemons;
    snapshot_bytes;
    source_bytes = List.fold_left (fun a (_, s) -> a + String.length s) 0 sources;
    setup_wall_s = now () -. t0;
    setup_cpu_s =
      List.fold_left (fun a pid -> a +. Procs.threads_cpu_s pid) index_cpu_s daemons;
  }

let teardown topo = List.iter (fun pid -> Procs.stop pid) topo.daemons

(* ------------------------------------------------------------ requests *)

let request_of = function
  | Inputs.Query { family = Inputs.Topk10; text } ->
      Proto.Query (Proto.query_request ~merge:(Proto.Merge_topk 10) text)
  | Inputs.Query { text; _ } -> Proto.Query (Proto.query_request text)
  | Inputs.Update ops -> Proto.Update { ops; epoch = 0 }

type tally = {
  mutable attempted : int;
  mutable shed : int;
  mutable errors : int;
  mutable partial : int;
  mutable wrong : int;
}

let is_shed = function
  | Ok (Proto.Failure { Proto.code = "gtlx:GTLX0009"; _ }) -> true
  | _ -> false

let complaints = ref 0

let complain fmt =
  Printf.ksprintf
    (fun s ->
      incr complaints;
      if !complaints <= 5 then prerr_endline ("perfbench: " ^ s))
    fmt

(* Count one outcome that did not come back as a usable answer. *)
let transport_failure tally (o : Load.outcome) =
  if is_shed o.Load.reply then tally.shed <- tally.shed + 1
  else begin
    tally.errors <- tally.errors + 1;
    match o.reply with
    | Ok (Proto.Failure e) -> complain "error reply %s: %s" e.Proto.code e.Proto.message
    | Error e -> complain "transport error: %s" e
    | Ok _ -> complain "unexpected reply kind"
  end

(* The operations the daemon(s) acknowledged, in log order.  A single
   daemon's reply names the last WAL sequence number of its batch;
   through a router the batches were sent one at a time, so send order
   is log order. *)
let acknowledged_log ~shards (updates : (Load.outcome * Ftindex.Wal.op list) list) =
  let acked =
    List.filter_map
      (fun ((o : Load.outcome), ops) ->
        match o.Load.reply with
        | Ok (Proto.Update_reply u) -> Some (u.Proto.u_last_seq, o.Load.index, ops)
        | _ -> None)
      updates
  in
  if shards > 1 then
    Ok
      (List.concat_map
         (fun (_, _, ops) -> ops)
         (List.sort (fun (_, a, _) (_, b, _) -> compare a b) acked))
  else begin
    let total = List.fold_left (fun a (_, _, ops) -> a + List.length ops) 0 acked in
    let log = Array.make total None in
    List.iter
      (fun (last, _, ops) ->
        List.iteri
          (fun i op ->
            let seq = last - List.length ops + 1 + i in
            if seq >= 1 && seq <= total then log.(seq - 1) <- Some op)
          ops)
      acked;
    if Array.for_all Option.is_some log then Ok (Array.to_list (Array.map Option.get log))
    else Error "acknowledged WAL sequence numbers have gaps"
  end

(* ------------------------------------------------------------ reporting *)

let ms x = 1000. *. x

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith (Printf.sprintf "metric is not finite (%f)" v)

let emit ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, value, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* ------------------------------------------------------------ checks *)

type verdict = {
  log_ok : bool;
  union_mismatches : int;  (** see [Oracle.union_top_scores] *)
}

(* Check every reply of a trial into [tally], adding the request ids of
   the correct answers to [good], then probe the final state, while the
   daemons are still up. *)
let verify (w : Inputs.workload) (inputs : Inputs.t) ~tally ~good ~socket_path ~open_out
    ~closed_out ~update_out =
  let oracle = Oracle.create ~shards:w.shards inputs.Inputs.sources in
  let ops events = Array.map (fun e -> e.Inputs.op) events in
  let tag closed ops outs =
    Array.to_list (Array.map (fun o -> (closed, o, ops.(o.Load.index mod Array.length ops))) outs)
  in
  let all =
    tag false (ops inputs.open_events) open_out
    @ tag true inputs.Inputs.closed_ops closed_out
    @ tag false (ops inputs.update_batches) update_out
  in
  let updates =
    List.filter_map
      (fun (_, o, op) -> match op with Inputs.Update ops -> Some (o, ops) | Inputs.Query _ -> None)
      all
  in
  let log_ok =
    match acknowledged_log ~shards:w.shards updates with
    | Ok log ->
        Oracle.set_log oracle log;
        true
    | Error e ->
        complain "%s" e;
        false
  in
  let queries =
    List.filter_map
      (fun (_, (o : Load.outcome), op) ->
        tally.attempted <- tally.attempted + 1;
        match (op, o.reply) with
        | Inputs.Update _, Ok (Proto.Update_reply _) -> None
        | Inputs.Query { family; text }, Ok (Proto.Value v) when v.Proto.partial = None ->
            Some (v.Proto.seq, o.Load.req, family, text, v.Proto.items)
        | Inputs.Query _, Ok (Proto.Value _) ->
            tally.partial <- tally.partial + 1;
            None
        | (Inputs.Update _ | Inputs.Query _), _ ->
            transport_failure tally o;
            None)
      all
  in
  (* ascending seq, so the oracle replays the log forward only *)
  List.iter
    (fun (seq, req, family, text, items) ->
      match Oracle.check oracle ~family ~seq ~text items with
      | Check.Ok -> Hashtbl.replace good req ()
      | Check.Wrong why ->
          tally.wrong <- tally.wrong + 1;
          complain "wrong answer at seq %d to %s: %s" seq text why)
    (List.stable_sort (fun (a, _, _, _, _) (b, _, _, _, _) -> compare a b) queries);
  let ask (family, text) =
    fst (Load.exchange ~timeout:request_timeout ~socket_path (request_of (Inputs.Query { family; text })))
  in
  (* after the run: probes against engines built from scratch *)
  let distinct = Inputs.distinct_queries inputs.Inputs.closed_ops in
  let final = Oracle.final_checker oracle in
  List.iter
    (fun ((family, text) as q) ->
      tally.attempted <- tally.attempted + 1;
      match ask q with
      | Ok (Proto.Value v) when v.Proto.partial = None -> (
          match final ~family ~text v.Proto.items with
          | Check.Ok -> ()
          | Check.Wrong why ->
              tally.wrong <- tally.wrong + 1;
              complain "final state: wrong answer to %s: %s" text why)
      | _ -> tally.errors <- tally.errors + 1)
    ((Inputs.Single, "count(collection()//book)")
    :: List.filteri (fun i _ -> i < 12) (Array.to_list distinct));
  let union_mismatches =
    if w.shards = 1 then 0
    else
      let union_top_scores = Oracle.union_top_scores oracle in
      List.length
        (List.filter
           (fun ((family, text) as q) ->
             family = Inputs.Topk10
             &&
             match ask q with
             | Ok (Proto.Value v) ->
                 Check.scores
                   ~expected:(List.filteri (fun i _ -> i < 10) (union_top_scores text))
                   ~got:v.Proto.items
                 <> Check.Ok
             | _ -> true)
           (Array.to_list distinct))
  in
  { log_ok; union_mismatches }

(* ------------------------------------------------------------ the run *)

(* One trial: a fresh topology, the three measured phases against it,
   then the checks, while its daemons are still up. *)
type trial = {
  topo : topo;
  open_out : Load.outcome array;
  closed_out : Load.outcome array;
  update_out : Load.outcome array;
  open_cpu_s : float;  (** daemon CPU, summed over daemons *)
  closed_cpu_s : float;
  update_cpu_s : float;
  rss_mb : float;  (** peak RSS, summed over daemons *)
  server_side : Layers.server option;  (** traced runs, last trial *)
  verdict : verdict;
}

let run_trial ~galatex ~root ~spans ~trace ~last ~tally ~good (inputs : Inputs.t) k =
  let w = inputs.Inputs.workload in
  let phases = inputs.Inputs.phases in
  let topo = setup ~galatex ~root inputs k in
  let socket_path = topo.front in
  (* daemon CPU seconds spent in [f] *)
  let daemon_cpu f =
    let cpu () = List.fold_left (fun a pid -> a +. Procs.cpu_s pid) 0. topo.daemons in
    let before = cpu () in
    let v = f () in
    (v, cpu () -. before)
  in
  let open_out, open_cpu_s =
    daemon_cpu (fun () ->
        Load.open_loop ~senders:nproc ~timeout:request_timeout ~socket_path ~spans
          ~trace_every:(if trace then 2 else 0) ~request_of inputs.Inputs.open_events)
  in
  let closed_out, closed_cpu_s =
    daemon_cpu (fun () ->
        Load.closed_loop ~conns:nproc ~timeout:request_timeout ~socket_path ~spans
          ~duration:phases.Inputs.closed_s ~round:inputs.round ~request_of
          inputs.Inputs.closed_ops)
  in
  (* one sender, so send order is log order *)
  let update_out, update_cpu_s =
    daemon_cpu (fun () ->
        Load.open_loop ~senders:1 ~timeout:request_timeout ~socket_path ~request_of
          inputs.update_batches)
  in
  let rss_mb = List.fold_left (fun a pid -> a +. Procs.peak_rss_mb pid) 0. topo.daemons in
  let server_side =
    if trace && last then
      Some
        (Layers.server_side ~front:topo.front ~shard_socks:topo.shard_socks
           ~topk_queries:
             (List.filter_map
                (fun (f, q) -> if f = Inputs.Topk10 then Some q else None)
                (Array.to_list (Inputs.distinct_queries inputs.Inputs.closed_ops))))
    else None
  in
  let verdict = verify w inputs ~tally ~good ~socket_path ~open_out ~closed_out ~update_out in
  teardown topo;
  { topo; open_out; closed_out; update_out; open_cpu_s; closed_cpu_s; update_cpu_s; rss_mb; server_side; verdict }

let run ~galatex ~workdir ~root ~workload ~seed ~seconds ~trace =
  let w =
    match Inputs.find workload with
    | Some w -> w
    | None -> failwith (Printf.sprintf "unknown workload %S" workload)
  in
  let inputs = Inputs.make w ~seed ~seconds:(float_of_int seconds /. float_of_int trials) in
  Procs.rm_rf root;
  Procs.mkdir_p root;
  let spans = Spans.create ~enabled:trace in
  Fun.protect
    ~finally:(fun () -> Procs.stop_all (); Procs.rm_rf root)
  @@ fun () ->
  let tally = { attempted = 0; shed = 0; errors = 0; partial = 0; wrong = 0 } in
  let good = Hashtbl.create 4096 (* request ids of the correct answers *) in
  let runs =
    List.init trials (fun k ->
        run_trial ~galatex ~root ~spans ~trace ~last:(k = trials - 1) ~tally ~good inputs k)
  in
  let all f = Array.concat (List.map f runs) in
  let sum f = List.fold_left (fun a r -> a +. f r) 0. runs in
  let median_of f = Stats.median (Array.of_list (List.map f runs)) in
  let open_out = all (fun r -> r.open_out)
  and closed_out = all (fun r -> r.closed_out)
  and update_out = all (fun r -> r.update_out) in
  let log_ok = List.for_all (fun r -> r.verdict.log_ok) runs in
  let union_mismatches = (List.hd runs).verdict.union_mismatches in
  let failed = tally.shed + tally.errors + tally.partial + tally.wrong in
  let correct = failed = 0 && log_ok in
  (* --- metrics, from correct answers only *)
  let is_good (o : Load.outcome) = Hashtbl.mem good o.req in
  let is_acked (o : Load.outcome) =
    match o.reply with Ok (Proto.Update_reply _) -> true | _ -> false
  in
  let count pred outs = Array.fold_left (fun n o -> if pred o then n + 1 else n) 0 outs in
  let latencies pred outs =
    Array.of_list
      (List.filter_map
         (fun (o : Load.outcome) -> if pred o then Some (ms (o.finish -. o.due)) else None)
         (Array.to_list outs))
  in
  (* wall-clock figures, from the untraced answers; a traced run reports
     them among its per-layer metrics *)
  let q_lat = latencies (fun o -> is_good o && not o.traced) open_out in
  let u_lat = latencies is_acked update_out in
  let late =
    Array.of_list
      (List.filter_map
         (fun (o : Load.outcome) -> Option.map ms o.late)
         (Array.to_list (Array.append open_out update_out)))
  in
  let late_p99 = if Array.length late = 0 then 0. else Stats.percentile late 0.99 in
  let closed_good = count is_good closed_out and acked = count is_acked update_out in
  (* correct answers per second of closed loop *)
  let peak_qps =
    let span outs =
      Array.fold_left (fun a (o : Load.outcome) -> Float.max a o.finish) 0. outs
      -. Array.fold_left (fun a (o : Load.outcome) -> Float.min a o.start) Float.infinity outs
    in
    float_of_int closed_good /. sum (fun r -> span r.closed_out)
  in
  let topo = (List.hd runs).topo in
  let wall =
    [
      ("wall.setup_s", median_of (fun r -> r.topo.setup_wall_s), "s");
      ("wall.query_p50_ms", Stats.percentile q_lat 0.5, "ms");
      ("wall.query_p90_ms", Stats.percentile q_lat 0.9, "ms");
      ("wall.peak_qps", peak_qps, "1/s");
      ("wall.update_p50_ms", Stats.percentile u_lat 0.5, "ms");
      ("wall.update_p90_ms", Stats.percentile u_lat 0.9, "ms");
    ]
  in
  let e2e =
    [
      ("setup_s", median_of (fun r -> r.topo.setup_cpu_s), "s");
      ("query_cpu_ms", ms (sum (fun r -> r.closed_cpu_s)) /. float_of_int (max 1 closed_good), "ms");
      ("update_cpu_ms", ms (sum (fun r -> r.update_cpu_s)) /. float_of_int (max 1 acked), "ms");
      ( "index_bytes_per_doc_byte",
        float_of_int topo.snapshot_bytes /. float_of_int topo.source_bytes,
        "ratio" );
      ("daemon_rss_mb", median_of (fun r -> r.rss_mb), "MiB");
    ]
  in
  Printf.printf
    "workload %s seed %d: %d trials; %d open-loop answers in %.2f daemon CPU s, %d \
     closed-loop answers in %.2f daemon CPU s, %d update batches in %.2f daemon CPU s; \
     generator late p99 %.3f ms\n"
    w.name seed trials (count is_good open_out)
    (sum (fun r -> r.open_cpu_s))
    closed_good
    (sum (fun r -> r.closed_cpu_s))
    acked
    (sum (fun r -> r.update_cpu_s))
    late_p99;
  Printf.printf
    "wall-clock percentiles rest on %d query and %d update samples (p90: %d and %d beyond)\n"
    (Array.length q_lat) (Array.length u_lat)
    (Stats.beyond (Array.length q_lat) 0.9)
    (Stats.beyond (Array.length u_lat) 0.9);
  Printf.printf "attempted %d: shed %d, errors %d, partial %d, wrong %d\n" tally.attempted tally.shed
    tally.errors tally.partial tally.wrong;
  if w.shards > 1 then
    Printf.printf
      "top-10 answers differing from one engine over the union corpus: %d of %d (shard-local idf)\n"
      union_mismatches (Array.length (Inputs.distinct_queries inputs.Inputs.closed_ops));
  List.iter (fun (n, v, u) -> Printf.printf "  %-26s %12.4f %s\n" n v u) (e2e @ wall);
  if late_p99 > max_late_p99_ms then begin
    Printf.eprintf "perfbench: invalid run: generator dispatched late (p99 %.2f ms > %.0f ms)\n"
      late_p99 max_late_p99_ms;
    None
  end
  else if not trace then Some (correct, tally.attempted, failed, e2e)
  else begin
    let layer =
      Layers.probe ~spans ~inputs ~scratch:(root / "layers")
        ~snapshot_bytes:topo.snapshot_bytes
    in
    let traced, untraced =
      List.partition (fun (o : Load.outcome) -> o.traced) (List.filter is_good (Array.to_list open_out))
    in
    let p q l = Stats.percentile (latencies (fun _ -> true) (Array.of_list l)) q in
    let client_mean =
      Stats.mean
        (Array.of_list
           (List.filter_map
              (fun (o : Load.outcome) -> if is_good o then Some (ms (o.finish -. o.start)) else None)
              (Array.to_list open_out)))
    in
    let server = Option.get (List.nth runs (trials - 1)).server_side in
    let per_layer =
      layer @ wall
      @ Layers.server_metrics server ~client_mean_ms:client_mean
      @ Layers.exchange_metrics ~spans (Array.append open_out closed_out)
      @ [
          ("cluster.union_topk_mismatches", float_of_int union_mismatches, "count");
          ("loadgen.late_p99_ms", late_p99, "ms");
          ("trace.overhead_p50_ms", p 0.5 traced -. p 0.5 untraced, "ms");
          ("trace.overhead_p90_ms", p 0.9 traced -. p 0.9 untraced, "ms");
        ]
    in
    Spans.write_jsonl
      (workdir / Printf.sprintf "spans-%s-%d.jsonl" w.name seed)
      (Spans.spans spans);
    Some (correct, tally.attempted, failed, per_layer)
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let galatex = ref ("_build" / "default" / "bin" / "galatex_cli.exe") in
  let workdir = ref (".bench_build" / "perfbench") in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "N measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 traced per-layer run");
      ("--galatex", Arg.Set_string galatex, "PATH galatex CLI binary");
      ("--workdir", Arg.Set_string workdir, "DIR scratch directory");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds N --trace 0|1";
  if Inputs.find !workload = None || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    Printf.eprintf "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n"
      (String.concat ", " (List.map (fun w -> w.Inputs.name) Inputs.workloads));
    exit 2
  end;
  let root = !workdir / Printf.sprintf "run-%d" (Unix.getpid ()) in
  let bail code =
    Procs.stop_all ();
    (try Procs.rm_rf root with Unix.Unix_error _ | Sys_error _ -> ());
    Unix._exit code
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> bail 143));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> bail 130));
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* every run must end within its budget, whatever the daemons do *)
  ignore
    (Thread.create
       (fun () ->
         Thread.delay 170.;
         prerr_endline "perfbench: run exceeded 170 s, aborting";
         bail 4)
       ());
  match
    run ~galatex:!galatex ~workdir:!workdir ~root ~workload:!workload ~seed:!seed ~seconds:!seconds
      ~trace:(!trace = 1)
  with
  | Some (correct, attempted, failed, metrics) ->
      emit ~correct ~attempted ~failed metrics;
      exit 0
  | None -> exit 3
  | exception e ->
      Printf.eprintf "perfbench: %s\n" (Printexc.to_string e);
      exit 1
