(* The benchmark's own checks: deterministic inputs, order-statistic and
   self-time arithmetic on fixed vectors, and a correctness check that
   rejects a wrong answer. *)

let float = Alcotest.float 1e-12

(* ------------------------------------------------------------ inputs *)

let test_same_seed_same_inputs () =
  List.iter
    (fun w ->
      let a = Inputs.fingerprint (Inputs.make w ~seed:7 ~seconds:2.) in
      let b = Inputs.fingerprint (Inputs.make w ~seed:7 ~seconds:2.) in
      Alcotest.(check bool) (w.Inputs.name ^ ": byte-identical") true (String.equal a b))
    Inputs.workloads

let test_other_seed_other_inputs () =
  List.iter
    (fun w ->
      let a = Inputs.fingerprint (Inputs.make w ~seed:7 ~seconds:2.) in
      let b = Inputs.fingerprint (Inputs.make w ~seed:8 ~seconds:2.) in
      Alcotest.(check bool) (w.Inputs.name ^ ": differ") false (String.equal a b))
    Inputs.workloads

let test_rounds_keep_the_mix () =
  let w = Option.get (Inputs.find "small-hot") in
  let count seed =
    let t = Inputs.make w ~seed ~seconds:8. in
    let first_round = Array.sub (t.Inputs.closed_ops) 0 t.Inputs.round in
    List.sort compare (Array.to_list first_round)
  in
  Alcotest.(check bool) "same multiset of queries per round" true (count 1 = count 2)

(* ------------------------------------------------------------- stats *)

let test_percentiles () =
  let v = Array.init 10 (fun i -> float_of_int (10 - i)) in
  Alcotest.check float "p10" 1. (Stats.percentile v 0.1);
  Alcotest.check float "p50" 5. (Stats.percentile v 0.5);
  Alcotest.check float "p90" 9. (Stats.percentile v 0.9);
  Alcotest.check float "p99" 10. (Stats.percentile v 0.99);
  Alcotest.check float "p100" 10. (Stats.percentile v 1.0);
  Alcotest.check float "median of three" 2. (Stats.median [| 3.; 1.; 2. |]);
  Alcotest.check float "mean" 5.5 (Stats.mean v);
  Alcotest.(check bool) "no samples" true (Float.is_nan (Stats.percentile [||] 0.5));
  Alcotest.(check int) "10 beyond p90 of 100" 10 (Stats.beyond 100 0.9);
  Alcotest.(check int) "1 beyond p99 of 100" 1 (Stats.beyond 100 0.99)

let test_self_time () =
  (* children overlap ([1,3] and [2,5]) and one sticks out of the parent *)
  let children = [ (1., 3.); (2., 5.); (8., 9.); (9.5, 12.) ] in
  Alcotest.check float "covered" 5.5 (Stats.covered ~lo:0. ~hi:10. children);
  Alcotest.check float "self" 4.5 (Stats.self_time ~start:0. ~finish:10. children);
  Alcotest.check float "leaf" 2. (Stats.self_time ~start:1. ~finish:3. [])

let test_span_tree () =
  let span id parent name start finish = { Spans.id; parent; req = 0; name; start; finish } in
  let spans =
    [
      span 0 (-1) "request" 0. 10.;
      span 1 0 "client.connect" 0. 1.;
      span 2 0 "client.await_reply" 1. 9.;
      span 3 2 "inner" 2. 4.;
    ]
  in
  let self name = (Spans.self_times_of spans name).(0) in
  Alcotest.check float "request" 1. (self "request");
  Alcotest.check float "await" 6. (self "client.await_reply");
  Alcotest.check float "inner" 2. (self "inner");
  let on = Spans.create ~enabled:true and off = Spans.create ~enabled:false in
  Spans.with_span on ~req:0 "outer" (fun parent ->
      Spans.with_span on ~parent ~req:0 "inner" (fun _ -> ()));
  Spans.with_span off ~req:0 "x" (fun _ -> ());
  (match Spans.spans on with
  | [ inner; outer ] ->
      Alcotest.(check int) "child names its parent" outer.Spans.id inner.Spans.parent
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l));
  Alcotest.(check int) "disabled records nothing" 0 (List.length (Spans.spans off))

(* ------------------------------------------------------------- check *)

let corpus = Inputs.corpus ~seed:3 ~books:6
let query = {|count(collection()//book[. ftcontains "ba"])|}

let test_wrong_answer_rejected () =
  let engine = Galatex.Engine.of_strings corpus in
  let right = Check.oracle_items engine query in
  Alcotest.(check bool) "right answer passes" true (Check.items ~expected:right ~got:right = Check.Ok);
  let n = int_of_string (List.hd right) in
  let wrong = [ string_of_int (n + 1) ] in
  Alcotest.(check bool) "wrong answer fails" true (Check.items ~expected:right ~got:wrong <> Check.Ok)

let test_oracle_follows_the_log () =
  let oracle = Oracle.create ~shards:1 corpus in
  let added = {|<book id="x"><p>ba ba ba</p></book>|} in
  Oracle.set_log oracle [ Ftindex.Wal.Add_doc { uri = "x.xml"; source = added } ];
  let at seq = Check.oracle_items (Galatex.Engine.of_strings (Ftindex.Wal.fold_sources corpus (if seq = 0 then [] else [ Ftindex.Wal.Add_doc { uri = "x.xml"; source = added } ]))) query in
  let check seq got = Oracle.check oracle ~family:Inputs.Single ~seq ~text:query got in
  Alcotest.(check bool) "seq 0" true (check 0 (at 0) = Check.Ok);
  Alcotest.(check bool) "seq 1" true (check 1 (at 1) = Check.Ok);
  Alcotest.(check bool) "stale answer at seq 1 fails" true (check 1 (at 0) <> Check.Ok);
  let final = Oracle.final_checker oracle in
  Alcotest.(check bool) "final state" true (final ~family:Inputs.Single ~text:query (at 1) = Check.Ok);
  Alcotest.(check bool) "final state, wrong" true
    (final ~family:Inputs.Single ~text:query (at 0) <> Check.Ok)

let test_topk_scores () =
  let items = [ {|<result score="0.5" id="a"/>|}; {|<result score="0.25" id="b"/>|} ] in
  let expected = Check.merged_top_scores ~k:10 [ [ List.nth items 1 ]; [ List.hd items ] ] in
  Alcotest.(check bool) "same scores in any order" true
    (Check.scores ~expected ~got:(List.rev items) = Check.Ok);
  let perturbed = [ {|<result score="0.5" id="a"/>|}; {|<result score="0.2500001" id="b"/>|} ] in
  Alcotest.(check bool) "perturbed score fails" true (Check.scores ~expected ~got:perturbed <> Check.Ok);
  Alcotest.(check bool) "missing result fails" true
    (Check.scores ~expected ~got:[ List.hd items ] <> Check.Ok)

let test_sharded_oracle () =
  let w = Option.get (Inputs.find "sharded-topk") in
  let t = Inputs.make w ~seed:5 ~seconds:2. in
  let sources = Inputs.corpus ~seed:5 ~books:12 in
  let oracle = Oracle.create ~shards:2 sources in
  let _, text = t.Inputs.probe.(Array.length t.Inputs.probe - 1) in
  let per_shard =
    Array.to_list
      (Array.map
         (fun part -> Check.oracle_items (Galatex.Engine.of_strings part) text)
         (Corpus.Partition.split ~shards:2 sources))
  in
  let routed = Galatex_cluster.Merge.top_k ~k:10 (List.mapi (fun i l -> (i, l)) per_shard) in
  Alcotest.(check bool) "merged top-10 passes" true
    (Oracle.check oracle ~family:Inputs.Topk10 ~seq:0 ~text routed = Check.Ok);
  Alcotest.(check bool) "one shard's list fails" true
    (routed = [] || Oracle.check oracle ~family:Inputs.Topk10 ~seq:0 ~text (List.tl routed) <> Check.Ok)

let () =
  Alcotest.run "perfbench"
    [
      ( "inputs",
        [
          Alcotest.test_case "same seed, same inputs" `Quick test_same_seed_same_inputs;
          Alcotest.test_case "other seed, other inputs" `Quick test_other_seed_other_inputs;
          Alcotest.test_case "rounds keep the mix" `Quick test_rounds_keep_the_mix;
        ] );
      ( "stats",
        [
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "span tree" `Quick test_span_tree;
        ] );
      ( "check",
        [
          Alcotest.test_case "wrong answer rejected" `Quick test_wrong_answer_rejected;
          Alcotest.test_case "oracle follows the log" `Quick test_oracle_follows_the_log;
          Alcotest.test_case "top-k scores" `Quick test_topk_scores;
          Alcotest.test_case "sharded oracle" `Quick test_sharded_oracle;
        ] );
    ]
