(* Match options (paper Sections 3.1.4, 3.2.3.2): defaults, resolution
   order, and word expansion against the distinct-word list. *)

open Galatex
open Xquery.Ast

let check_bool = Alcotest.check Alcotest.bool
let check_keys = Alcotest.check (Alcotest.list Alcotest.string)

let corpus_engine =
  lazy
    (Engine.of_strings
       ~thesauri:
         [ ("tools", Tokenize.Thesaurus.synonym_ring ~name:"tools" [ [ "hammer"; "mallet" ] ]) ]
       ~default_thesaurus:
         (Tokenize.Thesaurus.synonym_ring ~name:"default" [ [ "car"; "auto" ] ])
       [
         ( "d.xml",
           "<doc><p>Usability usable USER Cafe café hammer auto car connection connects Test tests.</p></doc>"
         );
       ])

let env () = Engine.env (Lazy.force corpus_engine)

let test_defaults () =
  let d = Match_options.defaults in
  check_bool "case insensitive" true (d.Match_options.case = Case_insensitive);
  check_bool "no stemming" false d.Match_options.stemming;
  check_bool "no wildcards" false d.Match_options.wildcards;
  check_bool "diacritics insensitive" false d.Match_options.diacritics_sensitive;
  check_bool "no stop words" true (d.Match_options.stop_words = None);
  check_bool "no thesaurus" true (d.Match_options.thesaurus = None);
  Alcotest.check Alcotest.string "english" "en" d.Match_options.language

let test_override_order () =
  (* outer "without stemming" then inner "with stemming" wins (the paper's
     usability example) *)
  let outer =
    Match_options.resolve_with ~outer:Match_options.defaults
      [ Opt_stemming false ]
  in
  let resolved = Match_options.resolve_with ~outer [ Opt_stemming true ] in
  check_bool "inner overrides outer" true resolved.Match_options.stemming

let expand_keys options token =
  let resolved = Match_options.resolve_with ~outer:Match_options.defaults options in
  let e = Match_options.expand (env ()) resolved token in
  List.sort compare e.Match_options.keys

let test_default_expansion () =
  (* case-insensitive exact: the casefolded key *)
  check_keys "exact key" [ "usability" ] (expand_keys [] "Usability");
  check_keys "missing word" [] (expand_keys [] "nosuchword")

let test_stemming_expansion () =
  check_keys "stem family" [ "connection"; "connects" ]
    (expand_keys [ Opt_stemming true ] "connected");
  check_keys "tests family" [ "test"; "tests" ]
    (expand_keys [ Opt_stemming true ] "testing")

let test_wildcard_expansion () =
  check_keys "prefix wildcard" [ "usability"; "usable"; "user" ]
    (expand_keys [ Opt_wildcards true ] "us.*")

let test_diacritics_expansion () =
  (* default insensitive: cafe matches both forms *)
  check_keys "insensitive" [ "cafe"; "caf\xc3\xa9" ] (expand_keys [] "cafe");
  check_keys "sensitive" [ "cafe" ]
    (expand_keys [ Opt_diacritics true ] "cafe")

let thesaurus_spec ?name ?relationship ?levels () =
  Opt_thesaurus
    (Some { th_name = name; th_relationship = relationship; th_levels = levels })

let test_thesaurus_expansion () =
  check_keys "named thesaurus" [ "hammer" ]
    (expand_keys [ thesaurus_spec ~name:"tools" () ] "mallet");
  check_keys "default thesaurus" [ "auto"; "car" ]
    (expand_keys [ thesaurus_spec () ] "car");
  check_keys "no thesaurus" [ "car" ] (expand_keys [] "car")

let test_thesaurus_levels_relationship () =
  (* a -> b -> c chain through "broader" *)
  let chain =
    Tokenize.Thesaurus.create ~name:"chain"
      [ ("broader", "usability", "usable"); ("broader", "usable", "user") ]
  in
  let env2 =
    Galatex.Engine.env
      (Galatex.Engine.of_strings
         ~thesauri:[ ("chain", chain) ]
         [ ("d.xml", "<doc><p>usability usable user</p></doc>") ])
  in
  let expand opts token =
    let resolved =
      Galatex.Match_options.resolve_with ~outer:Galatex.Match_options.defaults opts
    in
    List.sort compare (Galatex.Match_options.expand env2 resolved token).Galatex.Match_options.keys
  in
  check_keys "one level" [ "usability"; "usable" ]
    (expand [ thesaurus_spec ~name:"chain" ~levels:1 () ] "usability");
  check_keys "two levels" [ "usability"; "usable"; "user" ]
    (expand [ thesaurus_spec ~name:"chain" ~levels:2 () ] "usability");
  check_keys "relationship filter"
    [ "usability"; "usable" ]
    (expand
       [ thesaurus_spec ~name:"chain" ~relationship:"broader" ~levels:1 () ]
       "usability");
  check_keys "wrong relationship"
    [ "usability" ]
    (expand
       [ thesaurus_spec ~name:"chain" ~relationship:"narrower" ~levels:2 () ]
       "usability")

let test_special_chars () =
  check_keys "dash becomes .?" [ "usable" ]
    (expand_keys [ Opt_special_chars true ] "usa-ble")

let test_stop_word_flag () =
  let resolved =
    Match_options.resolve_with ~outer:Match_options.defaults
      [ Opt_stop_words (Some (Stop_list [ "the"; "of" ])) ]
  in
  check_bool "the is stop" true (Match_options.is_stop_word resolved "The");
  check_bool "usability is not" false
    (Match_options.is_stop_word resolved "usability");
  check_bool "no list, no stops" false
    (Match_options.is_stop_word Match_options.defaults "the")

let test_surface_case () =
  let resolved =
    Match_options.resolve_with ~outer:Match_options.defaults
      [ Opt_case Case_sensitive ]
  in
  let e = Match_options.expand (env ()) resolved "USER" in
  let postings =
    List.concat_map
      (fun k -> Ftindex.Inverted.postings (Engine.index (Lazy.force corpus_engine)) k)
      e.Match_options.keys
  in
  let accepted = List.filter e.Match_options.accept postings in
  Alcotest.check Alcotest.int "only exact surface" 1 (List.length accepted);
  Alcotest.check Alcotest.string "surface form" "USER"
    (Ftindex.Posting.token (List.hd accepted)).Tokenize.Token.word

let test_signature_distinguishes () =
  let sig_of opts =
    Match_options.signature
      (Match_options.resolve_with ~outer:Match_options.defaults opts)
  in
  check_bool "stemming changes signature" true
    (sig_of [ Opt_stemming true ] <> sig_of []);
  check_bool "case changes signature" true
    (sig_of [ Opt_case Case_sensitive ] <> sig_of []);
  check_bool "same options same signature" true (sig_of [] = sig_of [])

let tests =
  [
    Alcotest.test_case "spec defaults" `Quick test_defaults;
    Alcotest.test_case "override order" `Quick test_override_order;
    Alcotest.test_case "default expansion" `Quick test_default_expansion;
    Alcotest.test_case "stemming expansion" `Quick test_stemming_expansion;
    Alcotest.test_case "wildcard expansion" `Quick test_wildcard_expansion;
    Alcotest.test_case "diacritics expansion" `Quick test_diacritics_expansion;
    Alcotest.test_case "thesaurus expansion" `Quick test_thesaurus_expansion;
    Alcotest.test_case "thesaurus levels/relationship" `Quick
      test_thesaurus_levels_relationship;
    Alcotest.test_case "special characters" `Quick test_special_chars;
    Alcotest.test_case "stop-word flag" `Quick test_stop_word_flag;
    Alcotest.test_case "case-sensitive surface filter" `Quick test_surface_case;
    Alcotest.test_case "expansion cache signatures" `Quick
      test_signature_distinguishes;
  ]
