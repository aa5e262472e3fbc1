(* Incremental index maintenance: adding or removing a document costs
   O(that document), and the result is still exactly the index a
   from-scratch build produces.

   1. complexity guards on deterministic quantities, not wall time: an
      update shares (physically) every posting list it did not touch, and
      a query over a one-document context pulls the same number of
      postings however many other documents contain its words;
   2. a differential property at scale: random add / remove / re-add
      sequences over a 120-document generated corpus fold to an index
      equal to re-indexing the folded sources (documents, words, postings
      with bit-equal scores, token streams), and answer like it;
   3. the three strategies agree after incremental updates (Translated,
      the reference, on a small corpus);
   4. document lookup by node follows adds, removes and replacements, and
      tree ids stay unique when trees are sealed on several domains. *)

open Ftindex
open Galatex

let index_eq = Test_store.index_eq

let books ?(sections = 2) ~seed ~doc_count () =
  Corpus.Generator.books
    {
      Corpus.Generator.default_profile with
      Corpus.Generator.seed;
      doc_count;
      sections_per_doc = sections;
      paras_per_section = 2;
      words_per_para = 20;
      vocab_size = 400;
    }
  |> List.map (fun (uri, d) -> (uri, Xmlkit.Printer.to_string d))

let w = Corpus.Vocab.word_for_rank

(* --- 1. complexity guards --- *)

let shared a b w =
  match (Inverted.word_postings a w, Inverted.word_postings b w) with
  | Some x, Some y -> x == y
  | _ -> false

let test_update_shares_untouched_postings () =
  let sources = books ~seed:5 ~doc_count:20 () in
  let parent = Engine.of_strings sources in
  let added = "<book><p>zyzzyva quokka " ^ w 0 ^ "</p></book>" in
  let added_words = Inverted.distinct_words (Indexer.index_strings [ ("x", added) ]) in
  let child =
    Engine.apply_update parent (Wal.Add_doc { uri = "new.xml"; source = added })
  in
  let untouched =
    List.filter
      (fun v -> not (List.mem v added_words))
      (Inverted.distinct_words (Engine.index parent))
  in
  Alcotest.(check bool) "some words untouched" true (List.length untouched > 50);
  List.iter
    (fun v ->
      if not (shared (Engine.index parent) (Engine.index child) v) then
        Alcotest.failf "postings of %S copied by an add that lacks it" v)
    untouched;
  Alcotest.(check bool)
    "a touched word is not shared" false
    (shared (Engine.index parent) (Engine.index child) (w 0));
  (* removing the document again shares them too *)
  let back = Engine.apply_update child (Wal.Remove_doc "new.xml") in
  List.iter
    (fun v ->
      if not (shared (Engine.index child) (Engine.index back) v) then
        Alcotest.failf "postings of %S copied by a remove that lacks it" v)
    untouched;
  Test_store.check_same "add then remove = parent" (Engine.index parent)
    (Engine.index back)

let postings_read engine ~strategy ~context q =
  (Engine.run_report engine ~strategy ~context q).Engine.counters
    .Xquery.Limits.postings_read

let test_padding_keeps_postings_read () =
  let target =
    ( "target.xml",
      "<book><p>alpha beta gamma alpha</p><p>beta delta</p></book>" )
  in
  let pad i =
    ( Printf.sprintf "pad-%03d.xml" i,
      "<book><p>alpha beta alpha beta gamma delta</p></book>" )
  in
  let queries =
    [
      {|count(//p[. ftcontains "alpha" && "beta"])|};
      {|count(//p[. ftcontains "alpha beta"])|};
      {|for $b in //book let $s := ft:score($b, "alpha" || "delta") return $s > 0|};
    ]
  in
  let small = Engine.of_strings [ target ] in
  let padded = Engine.of_strings (target :: List.init 60 pad) in
  List.iter
    (fun (name, strategy) ->
      List.iter
        (fun q ->
          let before = postings_read small ~strategy ~context:"target.xml" q in
          Alcotest.(check bool) (name ^ " reads postings") true (before > 0);
          Alcotest.(check int)
            (Printf.sprintf "%s postings_read unchanged by padding: %s" name q)
            before
            (postings_read padded ~strategy ~context:"target.xml" q))
        queries)
    [
      ("materialized", Engine.Native_materialized);
      ("pipelined", Engine.Native_pipelined);
    ]

(* --- 2. differential property at scale --- *)

let base_sources = lazy (books ~seed:11 ~doc_count:120 ())
let extra_sources = lazy (books ~seed:12 ~doc_count:12 ())
let base_index = lazy (Indexer.index_strings (Lazy.force base_sources))

(* ops draw most uris from a small hot set so removes, re-adds and
   replacements of the same uri actually happen *)
let gen_ops =
  let open QCheck2.Gen in
  let base = Array.of_list (List.map fst (Lazy.force base_sources)) in
  let extra = Array.of_list (List.map snd (Lazy.force extra_sources)) in
  let hot =
    [| base.(0); base.(1); base.(57); base.(119); "new-0.xml"; "new-1.xml" |]
  in
  let uri = frequency [ (3, oneofa hot); (1, oneofa base) ] in
  let op =
    frequency
      [
        ( 3,
          let* uri = uri in
          let* source = oneofa extra in
          return (Wal.Add_doc { uri; source }) );
        (2, map (fun u -> Wal.Remove_doc u) uri);
      ]
  in
  list_size (int_range 1 10) op

let print_ops ops =
  String.concat "; "
    (List.map
       (function
         | Wal.Add_doc { uri; _ } -> "add " ^ uri
         | Wal.Remove_doc uri -> "remove " ^ uri)
       ops)

let scale_queries =
  [
    Printf.sprintf {|count(collection()//p[. ftcontains "%s" && "%s"])|} (w 3)
      (w 8);
    Printf.sprintf
      {|for $b in collection()//book let $s := ft:score($b, "%s" || "%s") where $s > 0 order by $s descending return string($b/@id)|}
      (w 1) (w 20);
  ]

let prop_ops_equal_rebuild =
  QCheck2.Test.make ~name:"incremental ops = rebuild at 120 docs" ~count:12
    ~print:print_ops gen_ops (fun ops ->
      let folded =
        List.fold_left (fun i op -> Wal.apply i op) (Lazy.force base_index) ops
      in
      let scratch =
        Indexer.index_strings (Wal.fold_sources (Lazy.force base_sources) ops)
      in
      index_eq folded scratch
      &&
      let a = Engine.of_index folded and b = Engine.of_index scratch in
      List.for_all
        (fun q ->
          List.for_all
            (fun strategy ->
              Xquery.Value.to_display_string (Engine.run a ~strategy q)
              = Xquery.Value.to_display_string (Engine.run b ~strategy q))
            [ Engine.Native_materialized; Engine.Native_pipelined ])
        scale_queries)

(* --- 3. strategies agree after incremental updates --- *)

let small_sources = lazy (books ~sections:1 ~seed:21 ~doc_count:4 ())

let strategy_queries =
  [
    Printf.sprintf {|count(collection()//p[. ftcontains "%s" && "%s"])|} (w 0)
      (w 4);
    Printf.sprintf {|count(collection()//p[. ftcontains "%s %s"])|} (w 0) (w 1);
    Printf.sprintf
      {|for $b in collection()//book[. ftcontains "%s" && "%s" window 12 words] return string($b/@id)|}
      (w 2) (w 5);
  ]

let prop_strategies_agree =
  let gen =
    let open QCheck2.Gen in
    let uris = [| "book0.xml"; "book3.xml"; "new-0.xml" |] in
    let extra =
      Array.of_list (List.map snd (books ~sections:1 ~seed:22 ~doc_count:3 ()))
    in
    list_size (int_range 1 4)
      (frequency
         [
           ( 2,
             let* uri = oneofa uris in
             let* source = oneofa extra in
             return (Wal.Add_doc { uri; source }) );
           (1, map (fun u -> Wal.Remove_doc u) (oneofa uris));
         ])
  in
  QCheck2.Test.make ~name:"strategies agree after incremental ops" ~count:3
    ~print:print_ops gen (fun ops ->
      let engine =
        List.fold_left Engine.apply_update
          (Engine.of_strings (Lazy.force small_sources))
          ops
      in
      List.for_all
        (fun q ->
          let answer strategy =
            Xquery.Value.to_display_string (Engine.run engine ~strategy q)
          in
          let reference = answer Engine.Translated in
          answer Engine.Native_materialized = reference
          && answer Engine.Native_pipelined = reference)
        strategy_queries)

(* --- 4. document lookup by node --- *)

let test_doc_of_node_follows_updates () =
  let e =
    Engine.of_strings
      [ ("a.xml", "<a><p>one</p></a>"); ("b.xml", "<b><p>two</p></b>") ]
  in
  let index = Engine.index e in
  let root uri = Option.get (Inverted.document_root (Engine.index e) uri) in
  let old_a = root "a.xml" in
  let p = List.hd (Xmlkit.Node.descendants old_a) in
  Alcotest.(check (option string)) "descendant" (Some "a.xml")
    (Inverted.doc_of_node index p);
  let e' =
    List.fold_left Engine.apply_update e
      [
        Wal.Add_doc { uri = "a.xml"; source = "<a><p>three</p></a>" };
        Wal.Remove_doc "b.xml";
      ]
  in
  let index' = Engine.index e' in
  let new_a = Option.get (Inverted.document_root index' "a.xml") in
  Alcotest.(check (option string)) "replaced root" (Some "a.xml")
    (Inverted.doc_of_node index' new_a);
  Alcotest.(check (option string)) "old root forgotten" None
    (Inverted.doc_of_node index' old_a);
  Alcotest.(check (option string)) "removed document forgotten" None
    (Inverted.doc_of_node index' (root "b.xml"));
  Alcotest.(check (option string)) "old snapshot unchanged" (Some "b.xml")
    (Inverted.doc_of_node index (root "b.xml"));
  Alcotest.(check (list string)) "re-added uri moves to the end"
    [ "a.xml" ]
    (List.map fst (Inverted.documents index'))

let test_tree_ids_unique_across_domains () =
  let seal_many () =
    List.init 2000 (fun _ ->
        Xmlkit.Node.tree_id (Xmlkit.Node.seal (Xmlkit.Node.element "x" [])))
  in
  let others = List.init 2 (fun _ -> Domain.spawn seal_many) in
  let mine = seal_many () in
  let all = mine @ List.concat_map Domain.join others in
  Alcotest.(check int) "distinct ids" (List.length all)
    (List.length (List.sort_uniq compare all))

let tests =
  [
    Alcotest.test_case "update shares untouched postings" `Quick
      test_update_shares_untouched_postings;
    Alcotest.test_case "padding keeps postings_read" `Quick
      test_padding_keeps_postings_read;
    QCheck_alcotest.to_alcotest prop_ops_equal_rebuild;
    QCheck_alcotest.to_alcotest prop_strategies_agree;
    Alcotest.test_case "doc of node follows updates" `Quick
      test_doc_of_node_follows_updates;
    Alcotest.test_case "tree ids unique across domains" `Quick
      test_tree_ids_unique_across_domains;
  ]
