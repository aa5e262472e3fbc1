(* The per-node fast paths of full-text dispatch, each checked against the
   expression it replaced:

   - [Value.document_order_dedup] skips its sort when the input is already
     in strictly increasing document order: equal to [List.sort_uniq];
   - a predicate-free [//name] is one descendant walk: equal to the
     two-step descendant-or-self::node()/child::name evaluation;
   - [Ft_ops.ft_and] merges two sorted include lists: equal to sorting
     their concatenation, ties included;
   - [Ft_ops.posting_entries] under a context merges per-document slices:
     equal to filtering the sorted whole-corpus postings;
   - [Score.node_score] scores in one pass: bit-equal to composing the
     scores of [Ft_ops.matches_for_node];
   - the match-option expansion memo is bounded. *)

open Galatex

(* --- document order --- *)

let gen_tree =
  let open QCheck2.Gen in
  let name = oneofl [ "a"; "b"; "c" ] in
  let rec node depth =
    if depth = 0 then map (fun n -> Xmlkit.Node.element n []) name
    else
      frequency
        [
          (1, map (fun n -> Xmlkit.Node.element n []) name);
          (1, map Xmlkit.Node.text (oneofl [ "x"; "y z" ]));
          ( 3,
            map2
              (fun n children -> Xmlkit.Node.element n children)
              name
              (list_size (int_range 0 4) (node (depth - 1))) );
        ]
  in
  map
    (fun children -> Xmlkit.Node.seal (Xmlkit.Node.document children))
    (list_size (int_range 1 3) (node 3))

(* several sealed trees (so node order spans tree ids) *)
let gen_forest = QCheck2.Gen.(list_size (int_range 1 4) gen_tree)

let all_nodes forest =
  List.concat_map
    (fun root ->
      List.concat_map
        (fun n -> n :: Xmlkit.Node.attributes n)
        (Xmlkit.Node.descendants_or_self root))
    forest

let same_nodes a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y ->
         match (x, y) with
         | Xquery.Value.Node m, Xquery.Value.Node n -> Xmlkit.Node.equal m n
         | _ -> false)
       a b

let prop_dedup_is_sort_uniq =
  QCheck2.Test.make ~name:"document_order_dedup = List.sort_uniq" ~count:200
    QCheck2.Gen.(triple gen_forest (int_range 0 2) (int_range 0 1_000_000))
    (fun (forest, shape, seed) ->
      let nodes = Array.of_list (all_nodes forest) in
      let rng = Random.State.make [| seed |] in
      let picked =
        match shape with
        | 0 ->
            (* an ordered subset: the no-sort path *)
            List.filter (fun _ -> Random.State.bool rng) (Array.to_list nodes)
        | 1 ->
            (* shuffled with duplicates *)
            List.init
              (Random.State.int rng (2 * Array.length nodes + 1))
              (fun _ -> nodes.(Random.State.int rng (Array.length nodes)))
        | _ ->
            (* ordered, with one adjacent duplicate or swap *)
            let l = Array.to_list nodes in
            let i = Random.State.int rng (Array.length nodes) in
            List.concat
              (List.mapi
                 (fun j n -> if j = i then [ n; n ] else [ n ])
                 (if Random.State.bool rng then l else List.rev l))
      in
      same_nodes
        (Xquery.Value.document_order_dedup (Xquery.Value.of_nodes picked))
        (Xquery.Value.of_nodes (List.sort_uniq Xmlkit.Node.compare_order picked)))

let test_dedup_rejects_atomics () =
  let doc = Xmlkit.Parser.parse_document "<a/>" in
  List.iter
    (fun v ->
      match Xquery.Value.document_order_dedup v with
      | exception Xquery.Errors.Error { code = Xquery.Errors.XPTY0004; _ } -> ()
      | _ -> Alcotest.fail "a non-node item must be a type error")
    [
      [ Xquery.Value.Integer 1 ];
      [ Xquery.Value.Node doc; Xquery.Value.String "x" ];
    ]

(* [//name] against the same path with a no-op predicate on the
   descendant-or-self step, which keeps the step-by-step evaluation *)
let slash_slash_pairs =
  [
    (".//b", "./descendant-or-self::node()[true()]/child::b");
    (".//*", "./descendant-or-self::node()[true()]/child::*");
    (".//text()", "./descendant-or-self::node()[true()]/child::text()");
    (".//node()", "./descendant-or-self::node()[true()]/child::node()");
    ( ".//b//a",
      "./descendant-or-self::node()[true()]/child::b/descendant-or-self::node()[true()]/child::a"
    );
    ( "(.//b, .//c)//a",
      "(.//b, .//c)/descendant-or-self::node()[true()]/child::a" );
    (".//c/b", "./descendant-or-self::node()[true()]/child::c/b");
  ]

let prop_slash_slash_is_two_steps =
  QCheck2.Test.make ~name:"//name = descendant-or-self::node()/child::name"
    ~count:100 gen_tree (fun root ->
      List.for_all
        (fun (fast, slow) ->
          let run q = Xquery.Eval.run_string ~context_node:root q in
          same_nodes (run fast) (run slow))
        slash_slash_pairs)

(* --- full-text --- *)

let w = Corpus.Vocab.word_for_rank

(* a small vocabulary, so words repeat within and across documents *)
let engine =
  lazy
    (Engine.create
       (Corpus.Generator.books
          {
            Corpus.Generator.default_profile with
            Corpus.Generator.seed = 15;
            doc_count = 6;
            sections_per_doc = 2;
            paras_per_section = 2;
            words_per_para = 12;
            vocab_size = 24;
          }))

let env () = Engine.env (Lazy.force engine)

let element_nodes () =
  List.concat_map
    (fun (_, root) ->
      List.filter Xmlkit.Node.is_element (Xmlkit.Node.descendants root))
    (Ftindex.Inverted.documents (Engine.index (Lazy.force engine)))
  |> Array.of_list

let gen_context =
  QCheck2.Gen.(
    map
      (fun picks ->
        let nodes = element_nodes () in
        List.map (fun i -> nodes.(i mod Array.length nodes)) picks)
      (list_size (int_range 1 6) (int_range 0 10_000)))

let selection ?within src =
  let q = Engine.parse (". ftcontains " ^ src) in
  match q.Xquery.Ast.body with
  | Xquery.Ast.Ft_contains { selection; _ } ->
      Ft_eval.all_matches ?within (env ()) ~eval:Xquery.Eval.eval
        (Xquery.Eval.setup_context q) selection
  | _ -> Alcotest.fail "not an FTSelection"

let gen_leaf =
  QCheck2.Gen.(
    oneof
      [
        map (fun r -> Printf.sprintf "%S" (w r)) (int_range 0 8);
        map (fun r -> Printf.sprintf "%S" (w r ^ " " ^ w (r + 1))) (int_range 0 4);
        (* several expansion keys *)
        map (fun c -> Printf.sprintf "\"%c.*\" with wildcards" c) (oneofl [ 'b'; 'c'; 'd' ]);
      ])

let gen_selection =
  QCheck2.Gen.(
    oneof
      [
        gen_leaf;
        map2 (fun a b -> Printf.sprintf "%s && %s" a b) gen_leaf gen_leaf;
        map2 (fun a b -> Printf.sprintf "(%s || %s) && %s" a b a) gen_leaf gen_leaf;
        map2 (fun a n -> Printf.sprintf "(%s && %s) window %d words" a a n) gen_leaf
          (int_range 2 12);
      ])

(* the FTAnd match as it was built: concatenate, then sort *)
let and_by_sorting (ma : All_matches.match_) (mb : All_matches.match_) =
  {
    All_matches.includes =
      List.stable_sort All_matches.compare_entries
        (ma.All_matches.includes @ mb.All_matches.includes);
    excludes = ma.All_matches.excludes @ mb.All_matches.excludes;
    score = Ft_ops.clamp_score (ma.All_matches.score *. mb.All_matches.score);
  }

let rec sorted = function
  | a :: (b :: _ as rest) -> All_matches.compare_entries a b <= 0 && sorted rest
  | _ -> true

let prop_ft_and_merges =
  QCheck2.Test.make ~name:"ft_and = concatenate-then-sort, includes sorted"
    ~count:80
    QCheck2.Gen.(triple gen_selection gen_selection (option gen_context))
    (fun (sa, sb, context) ->
      let within = Option.bind context (Ft_eval.context_filter (env ())) in
      (* the same selection on both sides gives ties (equal positions
         from different query words), whose order must be left first *)
      let a = selection ?within sa
      and b = selection ?within sb
      and b' = selection ?within sa in
      let size = All_matches.size in
      QCheck2.assume (size a * max (size b) (size b') <= 20_000);
      List.for_all
        (fun (a, b) ->
          let got = Ft_ops.ft_and a b in
          let want =
            List.concat_map
              (fun ma -> List.map (and_by_sorting ma) b.All_matches.matches)
              a.All_matches.matches
          in
          List.for_all
            (fun (m : All_matches.match_) -> sorted m.All_matches.includes)
            got.All_matches.matches
          && got.All_matches.matches = want)
        [ (a, b); (a, b') ])

let prop_posting_entries_under_context =
  QCheck2.Test.make
    ~name:"posting_entries under a context = filtered generic path" ~count:100
    QCheck2.Gen.(pair gen_context (int_range 0 11))
    (fun (nodes, which) ->
      let env = env () in
      let resolved, token =
        if which < 8 then (Match_options.defaults, w which)
        else
          ( { Match_options.defaults with Match_options.wildcards = true },
            [| "b.*"; "c.*"; ".a"; "d.*" |].(which - 8) )
      in
      let e = Match_options.expand env resolved token in
      let within = Option.get (Ft_eval.context_filter env nodes) in
      let inside p =
        List.exists
          (fun (doc, dewey) ->
            Ftindex.Posting.doc p = doc
            && Xmlkit.Dewey.contains dewey (Ftindex.Posting.node p))
          within
      in
      let g = Xquery.Limits.governor Xquery.Limits.defaults in
      let got = Ft_ops.posting_entries ~g ~within env e in
      let docs = List.sort_uniq compare (List.map fst within) in
      let read =
        List.fold_left
          (fun acc doc ->
            List.fold_left
              (fun acc k ->
                acc
                + List.length
                    (Ftindex.Inverted.postings_of_doc (Env.index env) ~doc k))
              acc e.Match_options.keys)
          0 docs
      in
      got = List.filter inside (Ft_ops.posting_entries env e)
      && (Xquery.Limits.counters g).Xquery.Limits.postings_read = read)

let old_node_score composition env node am =
  match Ft_ops.matches_for_node env node am with
  | [] -> 0.0
  | ms ->
      let s =
        Score.compose composition
          (List.map (fun (m : All_matches.match_) -> m.All_matches.score) ms)
      in
      if s <= 0.0 then epsilon_float else if s > 1.0 then 1.0 else s

let prop_node_score_one_pass =
  QCheck2.Test.make ~name:"node_score = compose over matches_for_node, bit-equal"
    ~count:60
    QCheck2.Gen.(pair gen_selection gen_context)
    (fun (src, nodes) ->
      let env = env () in
      let am = selection src in
      List.for_all
        (fun n ->
          List.for_all
            (fun c ->
              Int64.equal
                (Int64.bits_of_float (Score.node_score ~composition:c env n am))
                (Int64.bits_of_float (old_node_score c env n am)))
            [ Score.Noisy_or; Score.Max ])
        nodes)

(* --- the expansion memo is bounded --- *)

let test_expansion_cache_bounded () =
  let engine = Lazy.force engine in
  let env = Engine.env engine in
  let queries =
    [
      Printf.sprintf {|count(collection()//p[. ftcontains "%s %s"])|} (w 0) (w 1);
      Printf.sprintf
        {|for $b in collection()//book return ft:score($b, "%s" && "%s")|}
        (w 2) (w 5);
      {|count(collection()//p[. ftcontains "b.*" with wildcards])|};
    ]
  in
  let answers () =
    List.map
      (fun q ->
        Xquery.Value.to_display_string
          (Engine.run engine ~strategy:Engine.Native_materialized q))
      queries
  in
  let before = answers () in
  for i = 1 to 10_000 do
    ignore
      (Match_options.expand env Match_options.defaults (Printf.sprintf "tok%d" i))
  done;
  Alcotest.(check bool)
    (Printf.sprintf "at most %d entries" Env.expansion_cache_capacity)
    true
    (Hashtbl.length env.Env.expansion_cache <= Env.expansion_cache_capacity);
  Alcotest.(check (list string)) "answers unchanged" before (answers ());
  Alcotest.(check (list string)) "expansion still exact" [ w 0 ]
    (Match_options.expand env Match_options.defaults (w 0)).Match_options.keys

let tests =
  [
    QCheck_alcotest.to_alcotest prop_dedup_is_sort_uniq;
    Alcotest.test_case "dedup rejects atomics" `Quick test_dedup_rejects_atomics;
    QCheck_alcotest.to_alcotest prop_slash_slash_is_two_steps;
    QCheck_alcotest.to_alcotest prop_ft_and_merges;
    QCheck_alcotest.to_alcotest prop_posting_entries_under_context;
    QCheck_alcotest.to_alcotest prop_node_score_one_pass;
    Alcotest.test_case "expansion memo bounded" `Quick test_expansion_cache_bounded;
  ]
