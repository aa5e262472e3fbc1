open Xquery.Ast

(* Pipelined evaluation of FTSelections (paper Section 4.1): matches flow
   through the operator tree as a lazy sequence instead of whole AllMatches
   values being materialized at every step.  All primitives except
   FTUnaryNot and FTTimes are non-blocking, exactly as the paper observes
   ("All our full-text primitives, except FTTimes, are non-blocking");
   those two force their input.

   FTContains consumes the stream with the paper's early-exit loop: it
   stops at the first (match, node) pair that satisfies, so selective
   queries touch only a prefix of the match space.  The LCA node-marking
   strategy of Section 4.1 is also provided ({!matching_nodes_marked}). *)

type stream = {
  seq : All_matches.match_ Seq.t;
  anchors : ft_anchor list;
  mutable pulled : int;  (** matches actually produced — Fig 7 metric *)
}

let counted t seq =
  Seq.map
    (fun m ->
      t.pulled <- t.pulled + 1;
      m)
    seq

let of_matches matches = { seq = List.to_seq matches; anchors = []; pulled = 0 }

let to_all_matches s =
  { All_matches.matches = List.of_seq s.seq; anchors = s.anchors }

(* --- FTWords, lazily over the leading token's postings --- *)

let words_stream ?g ?within env resolved ~query_pos ~weight anyall phrases =
  (* The phrase extension machinery of Ft_ops is reused; only the iteration
     over occurrences is lazy.  Expansion (vocabulary scan) happens on
     construction, like GalaTex's inverted-list reads. *)
  let phrase_seq phrase =
    let tokens = Ft_ops.phrase_tokens resolved phrase in
    List.to_seq (Ft_ops.phrase_occurrences ?g ?within env resolved tokens)
    |> Seq.map (Ft_ops.match_of_postings ~query_pos ~weight)
  in
  let tokens_of phrases =
    List.concat_map (Ft_ops.phrase_tokens resolved) phrases
  in
  let or_all seqs = List.fold_left Seq.append Seq.empty seqs in
  match anyall with
  | Ft_any -> or_all (List.map phrase_seq phrases)
  | Ft_any_word -> or_all (List.map phrase_seq (tokens_of phrases))
  | Ft_phrase -> phrase_seq (String.concat " " phrases)
  | Ft_all | Ft_all_words ->
      (* conjunction across phrases: cross product, right sides materialized *)
      let parts =
        match anyall with
        | Ft_all -> List.map phrase_seq phrases
        | _ -> List.map phrase_seq (tokens_of phrases)
      in
      (match parts with
      | [] -> Seq.empty
      | first :: rest ->
          List.fold_left
            (fun acc seq ->
              let materialized = List.of_seq seq in
              Seq.concat_map
                (fun ma ->
                  List.to_seq
                    (List.map
                       (fun mb ->
                         All_matches.make_match
                           ~excludes:
                             (ma.All_matches.excludes @ mb.All_matches.excludes)
                           ~score:
                             (Ft_ops.clamp_score
                                (ma.All_matches.score *. mb.All_matches.score))
                           (ma.All_matches.includes @ mb.All_matches.includes))
                       materialized))
                acc)
            first rest)

(* --- operators --- *)

let ft_or a b =
  { seq = Seq.append a.seq b.seq; anchors = a.anchors @ b.anchors; pulled = 0 }

let ft_and a b =
  (* one side must be materialized for a product; keep the outer lazy *)
  let b_matches = List.of_seq b.seq in
  {
    seq =
      Seq.concat_map
        (fun ma ->
          List.to_seq
            (List.map
               (fun mb ->
                 All_matches.make_match
                   ~excludes:(ma.All_matches.excludes @ mb.All_matches.excludes)
                   ~score:
                     (Ft_ops.clamp_score
                        (ma.All_matches.score *. mb.All_matches.score))
                   (ma.All_matches.includes @ mb.All_matches.includes))
               b_matches))
        a.seq;
    anchors = a.anchors @ b.anchors;
    pulled = 0;
  }

(* Blocking operators fall back to the materialized implementations. *)
let blocking f s =
  let am = f (to_all_matches s) in
  { seq = List.to_seq am.All_matches.matches; anchors = am.All_matches.anchors;
    pulled = 0 }

let ft_unary_not s = blocking Ft_ops.ft_unary_not s
let ft_times range s = blocking (Ft_ops.ft_times range) s

let ft_mild_not a b =
  (* only the right side blocks (its positions form the filter) *)
  let b_am = to_all_matches b in
  let b_positions = Hashtbl.create 64 in
  List.iter
    (fun m ->
      List.iter
        (fun (e : All_matches.entry) ->
          Hashtbl.replace b_positions
            ( Ftindex.Posting.doc e.All_matches.posting,
              Ftindex.Posting.abs_pos e.All_matches.posting )
            ())
        m.All_matches.includes)
    b_am.All_matches.matches;
  {
    a with
    seq =
      Seq.filter
        (fun m ->
          not
            (List.exists
               (fun (e : All_matches.entry) ->
                 Hashtbl.mem b_positions
                   ( Ftindex.Posting.doc e.All_matches.posting,
                     Ftindex.Posting.abs_pos e.All_matches.posting ))
               m.All_matches.includes))
        a.seq;
  }

let ft_ordered s = { s with seq = Seq.filter Ft_ops.ordered_ok s.seq }

let ft_distance ?counting range unit_ s =
  { s with seq = Seq.filter_map (Ft_ops.distance_match ?counting range unit_) s.seq }

let ft_window ?counting n unit_ s =
  { s with seq = Seq.filter_map (Ft_ops.window_match ?counting n unit_) s.seq }

let ft_scope kind s = { s with seq = Seq.filter (Ft_ops.scope_ok kind) s.seq }

let ft_content anchor s = { s with anchors = anchor :: s.anchors }

let apply_ignore env ignored s =
  (* reuse the materialized single-match logic via a tiny adapter *)
  let filter m =
    let tmp = { All_matches.matches = [ m ]; anchors = [] } in
    match (Ft_ops.apply_ignore env ignored tmp).All_matches.matches with
    | [ m' ] -> Some m'
    | _ -> None
  in
  { s with seq = Seq.filter_map filter s.seq }

(* --- evaluation of a selection into a stream --- *)

let rec eval_stream ?within env ~eval ctx ~outer_options counter selection =
  let recur = eval_stream ?within env ~eval ctx in
  match selection with
  | Ft_words { source; anyall; options; weight } ->
      incr counter;
      let query_pos = !counter in
      let resolved = Match_options.resolve_with ~outer:outer_options options in
      let weight = Option.map (Ft_eval.eval_weight ~eval ctx) weight in
      {
        seq =
          words_stream ~g:ctx.Xquery.Context.governor ?within env resolved
            ~query_pos ~weight anyall
            (Ft_eval.source_phrases ~eval ctx source);
        anchors = [];
        pulled = 0;
      }
  | Ft_with_options (inner, options) ->
      let outer_options = Match_options.resolve_with ~outer:outer_options options in
      recur ~outer_options counter inner
  | Ft_and (a, b) ->
      let va = recur ~outer_options counter a in
      let vb = recur ~outer_options counter b in
      ft_and va vb
  | Ft_or (a, b) ->
      let va = recur ~outer_options counter a in
      let vb = recur ~outer_options counter b in
      ft_or va vb
  | Ft_mild_not (a, b) ->
      let va = recur ~outer_options counter a in
      let vb = recur ~outer_options counter b in
      ft_mild_not va vb
  | Ft_unary_not a -> ft_unary_not (recur ~outer_options counter a)
  | Ft_ordered a -> ft_ordered (recur ~outer_options counter a)
  | Ft_window (a, n, u) ->
      let counting =
        Ft_ops.counting ?stops:outer_options.Match_options.stop_words env
      in
      ft_window ~counting (Ft_eval.eval_int ~eval ctx n) (Ft_eval.eval_unit u)
        (recur ~outer_options counter a)
  | Ft_distance (a, range, u) ->
      let counting =
        Ft_ops.counting ?stops:outer_options.Match_options.stop_words env
      in
      ft_distance ~counting (Ft_eval.eval_range ~eval ctx range)
        (Ft_eval.eval_unit u)
        (recur ~outer_options counter a)
  | Ft_scope (a, kind) -> ft_scope kind (recur ~outer_options counter a)
  | Ft_times (a, range) ->
      ft_times (Ft_eval.eval_range ~eval ctx range) (recur ~outer_options counter a)
  | Ft_content (a, anchor) -> ft_content anchor (recur ~outer_options counter a)

let stream ?within env ~eval ctx selection =
  let s =
    eval_stream ?within env ~eval ctx ~outer_options:Match_options.defaults
      (ref 0) selection
  in
  (* pipelining never materializes whole AllMatches, so the governed —
     and counted — quantity is the number of matches pulled through the
     pipeline; same counter unit as the materialized strategy's operator
     outputs, which makes Section 4's pipelined <= materialized claim
     directly checkable from the report *)
  let g = ctx.Xquery.Context.governor in
  let pulled = ref 0 in
  {
    s with
    seq =
      Seq.map
        (fun m ->
          incr pulled;
          Xquery.Limits.check_matches g !pulled;
          Xquery.Limits.count_materialized g 1;
          m)
        s.seq;
  }

(* --- consumers --- *)

(* FTContains with early exit: the first satisfying (match, node) pair ends
   the scan — the paper's "if succeeded in marking new nodes then break". *)
let contains env nodes s =
  let node_infos =
    List.filter_map
      (fun n ->
        match Ftindex.Inverted.doc_of_node (Env.index env) n with
        | Some doc -> Some (n, doc, Xmlkit.Node.dewey n)
        | None -> None)
      nodes
  in
  Seq.exists
    (fun m ->
      List.exists
        (fun (_, doc, node_dewey) ->
          Ft_ops.satisfies_match env ~doc ~node_dewey s.anchors m)
        node_infos)
    (counted s s.seq)

type marking_stats = { mutable containment_checks : int; mutable marked : int }

(* Section 4.1's LCA node-marking loop: for matches without exclusions, one
   containment test against the match's LCA marks a context node, and nodes
   containing an already-marked node are answers without any per-position
   check.  Returns the satisfied nodes plus the number of containment checks
   performed (the S3 experiment's metric). *)
let matching_nodes_marked ?(use_marking = true) env nodes s =
  let stats = { containment_checks = 0; marked = 0 } in
  let index = Env.index env in
  let node_infos =
    List.map
      (fun n ->
        (n, Ftindex.Inverted.doc_of_node index n, Xmlkit.Node.dewey n, ref false))
      nodes
  in
  let mark_contains_lca () =
    Seq.iter
      (fun (m : All_matches.match_) ->
        let lca =
          if
            use_marking && m.All_matches.excludes = [] && s.anchors = []
            && Ft_ops.same_doc m.All_matches.includes
          then
            match m.All_matches.includes with
            | [] -> None
            | e :: _ ->
                let doc = Ftindex.Posting.doc e.All_matches.posting in
                Option.map
                  (fun d -> (doc, d))
                  (Xmlkit.Dewey.lca_all
                     (List.map
                        (fun (e : All_matches.entry) ->
                          Ftindex.Posting.node e.All_matches.posting)
                        m.All_matches.includes))
          else None
        in
        List.iter
          (fun (_, doc_opt, node_dewey, marked) ->
            if not !marked then
              match (lca, doc_opt) with
              | Some (mdoc, mlca), Some ndoc when ndoc = mdoc ->
                  (* a single ancestor test replaces one test per include *)
                  stats.containment_checks <- stats.containment_checks + 1;
                  if Xmlkit.Dewey.contains node_dewey mlca then begin
                    marked := true;
                    stats.marked <- stats.marked + 1
                  end
              | _ -> (
                  match doc_opt with
                  | Some doc ->
                      stats.containment_checks <-
                        stats.containment_checks
                        + List.length m.All_matches.includes
                        + List.length m.All_matches.excludes;
                      if Ft_ops.satisfies_match env ~doc ~node_dewey s.anchors m
                      then begin
                        marked := true;
                        stats.marked <- stats.marked + 1
                      end
                  | None -> ()))
          node_infos)
      s.seq
  in
  mark_contains_lca ();
  let answers =
    List.filter_map
      (fun (n, _, _, marked) -> if !marked then Some n else None)
      node_infos
  in
  (answers, stats)

(* --- the Context.ft_handler for the pipelined strategy --- *)

let handler env : Xquery.Context.ft_handler =
  {
    Xquery.Context.handle_contains =
      (fun ~eval ctx context_nodes selection ignored ->
        let within = Ft_eval.context_filter env (Ft_eval.nodes_of context_nodes) in
        let s = stream ?within env ~eval ctx selection in
        let s =
          match ignored with
          | None -> s
          | Some ig -> apply_ignore env (Ft_eval.nodes_of ig) s
        in
        Xquery.Value.boolean (contains env (Ft_eval.nodes_of context_nodes) s));
    Xquery.Context.handle_score =
      (fun ~eval ctx context_nodes selection ->
        (* scoring needs all matches (the Section 4.2 tension between
           pipelining and scoring): materialize *)
        let within = Ft_eval.context_filter env (Ft_eval.nodes_of context_nodes) in
        let s = stream ?within env ~eval ctx selection in
        let am = to_all_matches s in
        List.map
          (fun sc -> Xquery.Value.Double sc)
          (Score.scores env (Ft_eval.nodes_of context_nodes) am));
  }
