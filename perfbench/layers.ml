(* Per-layer metrics of a traced run.

   In-process: the benchmark calls each layer's public functions over the
   workload's own documents and queries, with a span around every call
   (or around a loop of identical calls, divided by the call count).
   From the daemons: counters and histograms read through [Client]. *)

module Proto = Galatex_server.Protocol
module Client = Galatex_server.Client
module Engine = Galatex.Engine

let now = Unix.gettimeofday

(* Run [f] inside a span of the probe request; returns its value. *)
let span spans name f = Spans.with_span spans ~req:(-1) name (fun _ -> f ())

let mean_self spans name = Stats.mean (Spans.self_times_of (Spans.spans spans) name)

(* Words inside the quoted full-text literals of a query. *)
let words_of_query text =
  let parts = String.split_on_char '"' text in
  List.concat
    (List.filteri (fun i _ -> i mod 2 = 1) parts
    |> List.map (fun lit ->
           List.filter
             (fun w -> w <> "" && String.for_all (fun c -> c >= 'a' && c <= 'z') w)
             (String.split_on_char ' ' lit)))

let book_node doc =
  List.find Xmlkit.Node.is_element (Xmlkit.Node.children doc)

let rec count_spans (s : Obs.Trace.span) =
  List.fold_left (fun n c -> n + count_spans c) 1 s.Obs.Trace.children

let rec find_span name (s : Obs.Trace.span) =
  if s.Obs.Trace.name = name then Some s
  else List.find_map (find_span name) s.Obs.Trace.children

let take n l = List.filteri (fun i _ -> i < n) l

let probe ~spans ~(inputs : Inputs.t) ~scratch ~snapshot_bytes =
  Procs.mkdir_p scratch;
  let sources = inputs.Inputs.sources in
  let ndocs = float_of_int (List.length sources) in
  (* xmlkit, tokenize *)
  let docs =
    List.map
      (fun (uri, src) ->
        (uri, span spans "xmlkit.parse" (fun () -> Xmlkit.Parser.parse_document ~uri src)))
      sources
  in
  List.iter
    (fun (_, d) ->
      ignore (span spans "tokenize.segment" (fun () -> Tokenize.Segmenter.tokenize_document d)))
    docs;
  (* ftindex: build, save, load *)
  let index = span spans "ftindex.build" (fun () -> Ftindex.Indexer.index_documents docs) in
  let dir = Filename.concat scratch "snap" in
  span spans "ftindex.store_save" (fun () -> Ftindex.Store.save ~dir index);
  let engine = span spans "ftindex.store_load" (fun () -> Engine.of_store ~dir ()) in
  (* ftindex: WAL append and live apply, over the workload's own update
     batches *)
  let update_ops =
    Array.to_list inputs.update_batches
    |> List.concat_map (fun e ->
           match e.Inputs.op with Inputs.Update ops -> ops | Inputs.Query _ -> [])
    |> take 9
  in
  let gen = Option.get (Ftindex.Store.current_generation ~dir) in
  let writer = Ftindex.Wal.open_writer ~dir ~generation:gen () in
  List.iter
    (fun op -> ignore (span spans "ftindex.wal_append" (fun () -> Ftindex.Wal.append writer op)))
    update_ops;
  ignore
    (List.fold_left
       (fun e op -> span spans "ftindex.apply_update" (fun () -> Engine.apply_update e op))
       engine update_ops);
  (* ftindex access paths: every probe word against every book node *)
  let words =
    List.sort_uniq compare
      (List.concat_map (fun (_, q) -> words_of_query q) (Array.to_list inputs.probe))
  in
  let books = List.map (fun (uri, d) -> (uri, book_node d)) docs in
  List.iter
    (fun w ->
      span spans "ftindex.postings_in" (fun () ->
          List.iter
            (fun (uri, b) ->
              ignore
                (Ftindex.Inverted.postings_in index ~doc:uri
                   ~node_dewey:(Xmlkit.Node.dewey b) w))
            books))
    words;
  let doc_of_node_reps = 20 in
  span spans "ftindex.doc_of_node" (fun () ->
      for _ = 1 to doc_of_node_reps do
        List.iter (fun (_, b) -> ignore (Ftindex.Inverted.doc_of_node index b)) books
      done);
  (* xquery, galatex: every probe query on the served (materialized) path *)
  let parsed =
    Array.to_list inputs.probe
    |> List.map (fun (family, text) ->
           (family, span spans "xquery.parse" (fun () -> Engine.parse text)))
  in
  let engine = Engine.of_index index in
  let per_family =
    List.concat_map
      (fun family ->
        let reports =
          List.filter (fun (f, _) -> f = family) parsed
          |> take 8
          |> List.map (fun (_, q) ->
                 span spans "galatex.run_query_report" (fun () ->
                     Engine.run_query_report engine ~strategy:Engine.Native_materialized q))
        in
        let avg f = Stats.mean (Array.of_list (List.map f reports)) in
        let eval_self (r : Engine.report) =
          match find_span "eval" r.Engine.trace with
          | None -> 0.
          | Some s ->
              Stats.self_time ~start:s.Obs.Trace.start ~finish:s.Obs.Trace.finish
                (List.map
                   (fun (c : Obs.Trace.span) -> (c.Obs.Trace.start, c.Obs.Trace.finish))
                   s.Obs.Trace.children)
        in
        let name m = Printf.sprintf "galatex.%s.%s" m (Inputs.family_name family) in
        [
          (name "eval_ms", avg (fun r -> 1000. *. eval_self r), "ms");
          ( name "postings_read",
            avg (fun r -> float_of_int r.Engine.counters.Xquery.Limits.postings_read),
            "count" );
          ( name "allmatches_materialized",
            avg (fun r ->
                float_of_int r.Engine.counters.Xquery.Limits.allmatches_materialized),
            "count" );
          (name "steps", avg (fun r -> float_of_int r.Engine.steps), "count");
          (name "trace_spans", avg (fun r -> float_of_int (count_spans r.Engine.trace)), "count");
        ])
      Inputs.all_families
  in
  (* cluster: merging per-shard top-10 candidate lists *)
  let shard_engines =
    Array.map Engine.of_strings (Corpus.Partition.split ~shards:2 sources)
  in
  let merge_reps = 50 in
  List.iter
    (fun (f, text) ->
      if f = Inputs.Topk10 then begin
        let per_shard =
          Array.to_list (Array.mapi (fun i e -> (i, Check.oracle_items e text)) shard_engines)
        in
        span spans "cluster.merge_top_k" (fun () ->
            for _ = 1 to merge_reps do
              ignore (Galatex_cluster.Merge.top_k ~k:10 per_shard)
            done)
      end)
    (take 8 (List.filter (fun (f, _) -> f = Inputs.Topk10) (Array.to_list inputs.probe)));
  let tokens = float_of_int (Ftindex.Inverted.total_postings index) in
  let build_s = mean_self spans "ftindex.build" in
  [
    ("xmlkit.parse_ms", 1000. *. mean_self spans "xmlkit.parse", "ms");
    ("tokenize.segment_ms", 1000. *. mean_self spans "tokenize.segment", "ms");
    ("ftindex.build_s", build_s, "s");
    ("ftindex.build_us_per_token", 1e6 *. build_s /. tokens, "us");
    ("ftindex.store_save_s", mean_self spans "ftindex.store_save", "s");
    ("ftindex.store_load_s", mean_self spans "ftindex.store_load", "s");
    ("ftindex.snapshot_bytes", float_of_int snapshot_bytes, "bytes");
    ("ftindex.wal_append_ms", 1000. *. mean_self spans "ftindex.wal_append", "ms");
    ("ftindex.apply_update_ms", 1000. *. mean_self spans "ftindex.apply_update", "ms");
    ("ftindex.postings_in_us", 1e6 *. mean_self spans "ftindex.postings_in" /. float_of_int (List.length books), "us");
    ( "ftindex.doc_of_node_us",
      1e6 *. mean_self spans "ftindex.doc_of_node" /. (ndocs *. float_of_int doc_of_node_reps),
      "us" );
    ("xquery.parse_us", 1e6 *. mean_self spans "xquery.parse", "us");
  ]
  @ per_family
  @ [ ("cluster.merge_us", 1e6 *. mean_self spans "cluster.merge_top_k" /. float_of_int merge_reps, "us") ]

(* ------------------------------------------------------------ daemons *)

type server = {
  counters : (string * int) list;  (** summed over every daemon *)
  eval_sum_s : float;  (** materialized query-duration histogram, summed *)
  eval_count : float;
  health_rtt_us : float;
  scatter_overhead_ms : float;
}

let histogram_field text field =
  let prefix = Printf.sprintf "galatex_query_duration_seconds_%s{strategy=\"materialized\"} " field in
  let n = String.length prefix in
  List.fold_left
    (fun acc line ->
      if String.length line > n && String.sub line 0 n = prefix then
        acc +. float_of_string (String.sub line n (String.length line - n))
      else acc)
    0. (String.split_on_char '\n' text)

let ok = function Ok v -> v | Error e -> failwith e

let time_exchange ~socket_path request =
  let t0 = now () in
  match Load.exchange ~timeout:10. ~socket_path request with
  | Ok (Proto.Value _ | Proto.Health_reply _), _ -> Some (now () -. t0)
  | _ -> None

(* Read after the measured phases, while the daemons are still up. *)
let server_side ~front ~shard_socks ~topk_queries =
  let daemons =
    if Array.length shard_socks > 1 then front :: Array.to_list shard_socks else [ front ]
  in
  let counters =
    List.concat_map (fun s -> (ok (Client.stats ~socket_path:s ())).Proto.counters) daemons
  in
  let sum key = List.fold_left (fun a (k, v) -> if k = key then a + v else a) 0 counters in
  let texts = List.map (fun s -> ok (Client.metrics ~socket_path:s ())) (Array.to_list shard_socks) in
  let rtts =
    List.filter_map
      (fun _ -> time_exchange ~socket_path:front Proto.Health)
      (List.init 200 Fun.id)
  in
  let scatter =
    if Array.length shard_socks = 1 then [ 0. ]
    else
      List.concat_map
        (fun text ->
          let req = Proto.Query (Proto.query_request ~merge:(Proto.Merge_topk 10) text) in
          List.filter_map
            (fun _ ->
              let direct =
                List.filter_map (fun s -> time_exchange ~socket_path:s req) (Array.to_list shard_socks)
              in
              match time_exchange ~socket_path:front req with
              | Some routed when List.length direct = Array.length shard_socks ->
                  Some (routed -. List.fold_left Float.max 0. direct)
              | _ -> None)
            [ 1; 2; 3 ])
        (take 10 topk_queries)
  in
  {
    counters =
      [
        ("shed", sum "shed");
        ("errors", sum "errors" + sum "update_errors" + sum "route_failed");
        ("partials", sum "route_partial");
      ];
    eval_sum_s = List.fold_left (fun a t -> a +. histogram_field t "sum") 0. texts;
    eval_count = List.fold_left (fun a t -> a +. histogram_field t "count") 0. texts;
    health_rtt_us = 1e6 *. Stats.median (Array.of_list rtts);
    scatter_overhead_ms = 1000. *. Stats.median (Array.of_list scatter);
  }

let server_metrics s ~client_mean_ms =
  let eval_mean_ms = 1000. *. s.eval_sum_s /. Float.max 1. s.eval_count in
  let c k = float_of_int (List.assoc k s.counters) in
  [
    ("server.eval_mean_ms", eval_mean_ms, "ms");
    ("server.outside_eval_mean_ms", client_mean_ms -. eval_mean_ms, "ms");
    ("server.health_rtt_us", s.health_rtt_us, "us");
    ("server.shed", c "shed", "count");
    ("server.errors", c "errors", "count");
    ("cluster.partials", c "partials", "count");
    ("cluster.scatter_overhead_ms", s.scatter_overhead_ms, "ms");
  ]

(* Frame codec cost of the traced exchanges, both directions: the
   client's encode/decode spans plus the daemon side's decode/encode of
   the same request and reply, repeated in-process. *)
let exchange_metrics ~spans (outcomes : Load.outcome array) =
  let queries =
    List.filter
      (fun (o : Load.outcome) ->
        match (o.Load.request, o.Load.reply) with
        | Proto.Query _, Ok (Proto.Value _) -> true
        | _ -> false)
      (Array.to_list outcomes)
  in
  let traced = List.filter (fun (o : Load.outcome) -> o.Load.traced) queries in
  List.iter
    (fun (o : Load.outcome) ->
      let reply = Result.get_ok o.Load.reply in
      let frame = Proto.encode_request o.Load.request in
      let side name f = ignore (Spans.with_span spans ~req:o.Load.req name (fun _ -> f ())) in
      side "protocol.decode_request" (fun () -> Proto.decode_request frame);
      side "protocol.encode_response" (fun () -> Proto.encode_response reply))
    traced;
  let reqs = Hashtbl.create 256 in
  List.iter (fun (o : Load.outcome) -> Hashtbl.replace reqs o.Load.req ()) traced;
  let codec =
    List.fold_left
      (fun acc ((sp : Spans.span), self) ->
        if Hashtbl.mem reqs sp.Spans.req && String.starts_with ~prefix:"protocol." sp.Spans.name
        then acc +. self
        else acc)
      0. (Spans.self_times (Spans.spans spans))
  in
  let bytes =
    Stats.mean
      (Array.of_list (List.map (fun (o : Load.outcome) -> float_of_int o.Load.reply_bytes) queries))
  in
  [
    ( "server.protocol_us",
      1e6 *. codec /. float_of_int (max 1 (List.length traced)),
      "us" );
    ("server.reply_bytes", bytes, "bytes");
  ]
