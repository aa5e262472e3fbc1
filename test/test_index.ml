open Ftindex

let check = Alcotest.check

let small_corpus () =
  Indexer.index_strings
    [
      ("d1.xml", "<doc><p>alpha beta gamma. alpha delta.</p></doc>");
      ("d2.xml", "<doc><p>beta beta epsilon</p><p>alpha</p></doc>");
    ]

let test_postings () =
  let idx = small_corpus () in
  let alpha = Inverted.postings idx "alpha" in
  check Alcotest.int "alpha occurrences" 3 (List.length alpha);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "alpha (doc, pos) sorted"
    [ ("d1.xml", 1); ("d1.xml", 4); ("d2.xml", 4) ]
    (List.map (fun p -> (Posting.doc p, Posting.abs_pos p)) alpha);
  check Alcotest.int "missing word" 0 (List.length (Inverted.postings idx "zeta"));
  check Alcotest.int "case folded lookup" 3
    (List.length (Inverted.postings idx "ALPHA"))

let test_distinct_words () =
  let idx = small_corpus () in
  check (Alcotest.list Alcotest.string) "distinct words"
    [ "alpha"; "beta"; "delta"; "epsilon"; "gamma" ]
    (Inverted.distinct_words idx);
  check Alcotest.int "count" 5 (Inverted.distinct_word_count idx);
  check Alcotest.int "total postings" 9 (Inverted.total_postings idx)

let test_duplicate_uri_rejected () =
  let idx = small_corpus () in
  let doc = Xmlkit.Parser.parse_document "<a>x</a>" in
  match Indexer.add_document idx ~uri:"d1.xml" doc with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected duplicate uri rejection"

let test_position_in_node () =
  let idx = small_corpus () in
  let d2 = Option.get (Inverted.document_root idx "d2.xml") in
  let second_p =
    List.nth (Xmlkit.Node.children (List.hd (Xmlkit.Node.children d2))) 1
  in
  let alpha_in_p2 =
    Inverted.postings_in idx ~doc:"d2.xml"
      ~node_dewey:(Xmlkit.Node.dewey second_p) "alpha"
  in
  check Alcotest.int "alpha in second p" 1 (List.length alpha_in_p2);
  let beta_in_p2 =
    Inverted.postings_in idx ~doc:"d2.xml"
      ~node_dewey:(Xmlkit.Node.dewey second_p) "beta"
  in
  check Alcotest.int "beta not in second p" 0 (List.length beta_in_p2)

let test_doc_of_node () =
  let idx = small_corpus () in
  let d1 = Option.get (Inverted.document_root idx "d1.xml") in
  let p = List.hd (Xmlkit.Node.children (List.hd (Xmlkit.Node.children d1))) in
  check (Alcotest.option Alcotest.string) "doc recovered" (Some "d1.xml")
    (Inverted.doc_of_node idx p);
  let foreign = Xmlkit.Parser.parse_document "<x/>" in
  check (Alcotest.option Alcotest.string) "foreign node" None
    (Inverted.doc_of_node idx foreign)

let test_node_extent () =
  let idx = small_corpus () in
  let d2 = Option.get (Inverted.document_root idx "d2.xml") in
  let doc_elem = List.hd (Xmlkit.Node.children d2) in
  let p1 = List.nth (Xmlkit.Node.children doc_elem) 0 in
  let p2 = List.nth (Xmlkit.Node.children doc_elem) 1 in
  check
    (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.int))
    "p1 extent" (Some (1, 3))
    (Inverted.node_extent idx ~doc:"d2.xml" ~node_dewey:(Xmlkit.Node.dewey p1));
  check
    (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.int))
    "p2 extent" (Some (4, 4))
    (Inverted.node_extent idx ~doc:"d2.xml" ~node_dewey:(Xmlkit.Node.dewey p2));
  check
    (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.int))
    "whole doc" (Some (1, 4))
    (Inverted.node_extent idx ~doc:"d2.xml" ~node_dewey:(Xmlkit.Node.dewey doc_elem))

(* --- stats / scores --- *)

let test_stats () =
  let idx = small_corpus () in
  let stats = Inverted.stats idx in
  check Alcotest.int "doc count" 2 (Stats.doc_count stats);
  check Alcotest.int "df alpha" 2 (Stats.document_frequency stats "alpha");
  check Alcotest.int "df gamma" 1 (Stats.document_frequency stats "gamma");
  check Alcotest.int "tf beta in d2" 2 (Stats.term_frequency stats ~doc:"d2.xml" "beta");
  check Alcotest.int "d1 token count" 5 (Stats.doc_token_count stats ~doc:"d1.xml")

let test_scores_in_unit_interval () =
  let idx = small_corpus () in
  List.iter
    (fun w ->
      List.iter
        (fun p ->
          if not (Posting.score p > 0.0 && Posting.score p <= 1.0) then
            Alcotest.failf "score of %s out of (0,1]: %f" w (Posting.score p))
        (Inverted.postings idx w))
    (Inverted.distinct_words idx)

let test_rarer_scores_higher () =
  let idx = small_corpus () in
  let stats = Inverted.stats idx in
  (* gamma (df 1) must outscore alpha (df 2) within d1 where both occur
     once... alpha occurs twice in d1, so compare idf directly *)
  check Alcotest.bool "idf monotone in rarity" true
    (Stats.idf_norm stats "gamma" > Stats.idf_norm stats "alpha")

(* --- XML externalization (Figure 5(b)) --- *)

let test_inverted_list_round_trip () =
  let idx = small_corpus () in
  let doc = Index_xml.inverted_list_document idx "beta" in
  let word, postings = Index_xml.postings_of_inverted_list doc in
  check Alcotest.string "word" "beta" word;
  let original = Inverted.postings idx "beta" in
  check Alcotest.int "entries" (List.length original) (List.length postings);
  List.iter2
    (fun a b ->
      check Alcotest.string "doc" (Posting.doc a) (Posting.doc b);
      check Alcotest.int "pos" (Posting.abs_pos a) (Posting.abs_pos b);
      check Alcotest.int "sentence" (Posting.sentence a) (Posting.sentence b);
      check Alcotest.int "para" (Posting.para a) (Posting.para b);
      check Alcotest.string "dewey"
        (Xmlkit.Dewey.to_string (Posting.node a))
        (Xmlkit.Dewey.to_string (Posting.node b));
      check (Alcotest.float 1e-6) "score" (Posting.score a) (Posting.score b))
    original postings

let test_distinct_words_document () =
  let idx = small_corpus () in
  let doc = Index_xml.distinct_words_document idx in
  check (Alcotest.list Alcotest.string) "distinct list round trip"
    (Inverted.distinct_words idx)
    (Index_xml.words_of_distinct_list doc)

let test_posting_validation () =
  let tok = Tokenize.Token.make ~abs_pos:1 "w" in
  (match Posting.make ~score:0.0 ~doc:"d" tok with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "score 0 rejected");
  match Posting.make ~score:1.5 ~doc:"d" tok with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "score >1 rejected"

(* property: every posting's position is within its own node's extent, and
   containment via postings_in is consistent with node_extent *)
let prop_extent_consistent =
  QCheck2.Test.make ~name:"postings fall inside their node extents" ~count:50
    QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let profile =
        {
          Corpus.Generator.default_profile with
          Corpus.Generator.seed;
          doc_count = 2;
          sections_per_doc = 2;
          paras_per_section = 2;
          words_per_para = 12;
          vocab_size = 30;
        }
      in
      let idx = Corpus.Generator.index_books profile in
      List.for_all
        (fun w ->
          List.for_all
            (fun p ->
              match
                Inverted.node_extent idx ~doc:(Posting.doc p)
                  ~node_dewey:(Posting.node p)
              with
              | Some (lo, hi) -> Posting.abs_pos p >= lo && Posting.abs_pos p <= hi
              | None -> false)
            (Inverted.postings idx w))
        (Inverted.distinct_words idx))

let tests =
  [
    Alcotest.test_case "postings" `Quick test_postings;
    Alcotest.test_case "distinct words" `Quick test_distinct_words;
    Alcotest.test_case "duplicate uri rejected" `Quick test_duplicate_uri_rejected;
    Alcotest.test_case "position in node (containsPos)" `Quick test_position_in_node;
    Alcotest.test_case "doc of node" `Quick test_doc_of_node;
    Alcotest.test_case "node extent" `Quick test_node_extent;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "scores in (0,1]" `Quick test_scores_in_unit_interval;
    Alcotest.test_case "idf monotone" `Quick test_rarer_scores_higher;
    Alcotest.test_case "inverted list XML round trip" `Quick
      test_inverted_list_round_trip;
    Alcotest.test_case "distinct words document" `Quick test_distinct_words_document;
    Alcotest.test_case "posting validation" `Quick test_posting_validation;
    QCheck_alcotest.to_alcotest prop_extent_consistent;
  ]
