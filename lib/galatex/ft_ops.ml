(* Materialized semantics of every FTSelection on AllMatches (paper Section
   3.2.3.1), with the probabilistic score formulas of Section 3.3:

     FTWords    score of a match = product of its entries' inverted-list
                scores (x the user weight, Section 2.2)
     FTAnd      s3 = s1 * s2
     FTOr       union of matches, scores kept (the 1-(1-s1)(1-s2) form
                applies when composing per-node answer scores, Score module)
     FTDistance / FTWindow   s' = s * f with f in (0,1] (damping by how much
                of the allowed span the match uses)
     FTNegation / FTOrdered / FTScope / FTTimes   scores unchanged

   Every operator consumes and produces whole AllMatches values — this is
   the materializing strategy whose cost Section 4 analyzes; Ft_stream
   implements the pipelined alternative. *)

open All_matches

type range =
  | Exactly of int
  | At_least of int
  | At_most of int
  | From_to of int * int

type unit_ = Words | Sentences | Paragraphs

let clamp_score s = if s <= 0.0 then epsilon_float else if s > 1.0 then 1.0 else s

(* --- FTWords --- *)

(* [within]: the evaluation context as (doc, dewey) pairs.  Like the
   paper's getTokenInfo, positions outside every context node are dropped at
   the source — they could never satisfy an FTContains/ft:score over that
   context, so this is semantics-preserving and avoids materializing
   irrelevant matches.  The index is keyed by document, so with a context
   only the context documents' postings are fetched at all. *)
let posting_entries ?g ?within env expansion =
  let index = Env.index env in
  let keys = expansion.Match_options.keys in
  let pulled, in_context =
    match within with
    | None -> (List.concat_map (Ftindex.Inverted.postings index) keys, fun _ -> true)
    | Some nodes ->
        let by_doc = Hashtbl.create 8 in
        List.iter
          (fun (doc, dewey) ->
            Hashtbl.replace by_doc doc
              (dewey :: Option.value ~default:[] (Hashtbl.find_opt by_doc doc)))
          nodes;
        ( Hashtbl.fold
            (fun doc _ acc ->
              List.concat_map (Ftindex.Inverted.postings_of_doc index ~doc) keys
              @ acc)
            by_doc [],
          fun p ->
            List.exists
              (fun dewey -> Xmlkit.Dewey.contains dewey (Ftindex.Posting.node p))
              (Hashtbl.find by_doc (Ftindex.Posting.doc p)) )
  in
  (* the observability hook: every inverted-list entry this leaf pulled,
     counted before context/option filtering — the paper's IO-side cost *)
  (match g with
  | Some g -> Xquery.Limits.count_postings g (List.length pulled)
  | None -> ());
  List.filter (fun p -> expansion.Match_options.accept p && in_context p) pulled
  |> List.sort Ftindex.Posting.compare_pos

(* Occurrences of a phrase: tokens must appear consecutively; tokens that
   are stop words (under the active stop-word list) are dropped and allow a
   corresponding gap between the surviving tokens (the paper: distance and
   window "skip stop words when specified"). *)
let phrase_occurrences ?g ?within env resolved tokens =
  let expansions = List.map (Match_options.expand env resolved) tokens in
  (* surviving tokens with the number of dropped stop tokens preceding them *)
  let survivors =
    let rec walk gap = function
      | [] -> []
      | e :: rest ->
          if e.Match_options.is_stop then walk (gap + 1) rest
          else (gap, e) :: walk 0 rest
    in
    walk 0 expansions
  in
  match survivors with
  | [] -> []
  | (_, first) :: rest ->
      let first_postings = posting_entries ?g ?within env first in
      (* index follower postings by (doc, position) for O(1) extension *)
      let follower_tables =
        List.map
          (fun (gap, e) ->
            let tbl = Hashtbl.create 64 in
            List.iter
              (fun p ->
                Hashtbl.replace tbl (Ftindex.Posting.doc p, Ftindex.Posting.abs_pos p) p)
              (posting_entries ?g ?within env e);
            (gap, tbl))
          rest
      in
      List.filter_map
        (fun p0 ->
          let rec extend acc prev_pos = function
            | [] -> Some (List.rev acc)
            | (gap, tbl) :: more ->
                (* allowed next positions: adjacent, plus up to [gap] skipped
                   stop-word slots *)
                let rec try_delta d =
                  if d > gap + 1 then None
                  else
                    match
                      Hashtbl.find_opt tbl (Ftindex.Posting.doc p0, prev_pos + d)
                    with
                    | Some p -> Some p
                    | None -> try_delta (d + 1)
                in
                (match try_delta 1 with
                | Some p -> extend (p :: acc) (Ftindex.Posting.abs_pos p) more
                | None -> None)
          in
          match extend [ p0 ] (Ftindex.Posting.abs_pos p0) follower_tables with
          | Some postings -> Some postings
          | None -> None)
        first_postings

let match_of_postings ~query_pos ~weight postings =
  let includes = List.map (fun p -> entry ~query_pos p) postings in
  let base =
    List.fold_left (fun acc p -> acc *. Ftindex.Posting.score p) 1.0 postings
  in
  let score =
    match weight with None -> base | Some w -> clamp_score (base *. w)
  in
  make_match ~score:(clamp_score score) includes

(* Phrase tokenization: under the wildcards / special-characters options
   the pattern characters are part of the token, so the phrase splits on
   whitespace only. *)
let phrase_tokens resolved phrase =
  if
    resolved.Match_options.wildcards || resolved.Match_options.special_chars
  then
    String.split_on_char ' '
      (String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) phrase)
    |> List.filter (( <> ) "")
  else Tokenize.Segmenter.words_of_phrase phrase

(* One phrase -> AllMatches with one Match per occurrence. *)
let phrase_matches ?g ?within env resolved ~query_pos ~weight phrase =
  let tokens = phrase_tokens resolved phrase in
  phrase_occurrences ?g ?within env resolved tokens
  |> List.map (match_of_postings ~query_pos ~weight)

(* --- Boolean connectives --- *)

let ft_or a b =
  { matches = a.matches @ b.matches; anchors = a.anchors @ b.anchors }

let ft_and a b =
  let matches =
    List.concat_map
      (fun ma ->
        List.map
          (fun mb ->
            make_match
              ~excludes:(ma.excludes @ mb.excludes)
              ~score:(clamp_score (ma.score *. mb.score))
              (ma.includes @ mb.includes))
          b.matches)
      a.matches
  in
  { matches; anchors = a.anchors @ b.anchors }

(* DNF negation: choose one entry from every match and flip its polarity.
   No matches (false) negates to one empty match (true); an empty match
   (true) negates to no matches (false). *)
let ft_unary_not a =
  let flip_choices m =
    List.map (fun e -> `Exclude e) m.includes
    @ List.map (fun e -> `Include e) m.excludes
  in
  let matches =
    List.fold_left
      (fun acc m ->
        List.concat_map
          (fun (inc, exc) ->
            List.map
              (function
                | `Include e -> (e :: inc, exc)
                | `Exclude e -> (inc, e :: exc))
              (flip_choices m))
          acc)
      [ ([], []) ] a.matches
  in
  {
    matches =
      List.map (fun (inc, exc) -> make_match ~excludes:exc inc) matches;
    anchors = a.anchors;
  }

(* Mild not ("A not in B"): keep a match of A unless one of its include
   positions is part of a match of B. *)
let ft_mild_not a b =
  let b_positions = Hashtbl.create 64 in
  List.iter
    (fun m ->
      List.iter
        (fun e ->
          Hashtbl.replace b_positions
            (Ftindex.Posting.doc e.posting, Ftindex.Posting.abs_pos e.posting)
            ())
        m.includes)
    b.matches;
  {
    a with
    matches =
      List.filter
        (fun m ->
          not
            (List.exists
               (fun e ->
                 Hashtbl.mem b_positions
                   ( Ftindex.Posting.doc e.posting,
                     Ftindex.Posting.abs_pos e.posting ))
               m.includes))
        a.matches;
  }

(* --- position filters --- *)

let unit_pos unit_ e =
  match unit_ with
  | Words -> Ftindex.Posting.abs_pos e.posting
  | Sentences -> Ftindex.Posting.sentence e.posting
  | Paragraphs -> Ftindex.Posting.para e.posting

let same_doc entries =
  match entries with
  | [] -> true
  | e :: rest ->
      List.for_all
        (fun e' -> Ftindex.Posting.doc e'.posting = Ftindex.Posting.doc e.posting)
        rest

(* FTOrdered: include positions must appear in the order of the search words
   in the query (their queryPos), paper Section 3.2.2. *)
let ordered_ok m =
  List.for_all
    (fun e1 ->
      List.for_all
        (fun e2 ->
          e1.query_pos >= e2.query_pos
          || (same_doc [ e1; e2 ]
             && Ftindex.Posting.abs_pos e1.posting
                <= Ftindex.Posting.abs_pos e2.posting))
        m.includes)
    m.includes

let ft_ordered a = { a with matches = List.filter ordered_ok a.matches }

let in_range range v =
  match range with
  | Exactly n -> v = n
  | At_least n -> v >= n
  | At_most n -> v <= n
  | From_to (lo, hi) -> v >= lo && v <= hi

(* The paper's wordDistance abstract function (Section 3.1.1) takes the
   match options: with an active stop-word list, words-unit distances and
   window spans skip stop words ("these primitives skip stop words when
   specified", Section 3.2.3.2).  [counting] carries what that needs. *)
type counting = {
  count_stops : Tokenize.Stopwords.Set.t option;
  count_env : Env.t option;
}

let plain_counting = { count_stops = None; count_env = None }

let counting ?stops env = { count_stops = stops; count_env = Some env }

(* number of counted (non-stop) words strictly between positions lo < hi of
   one document; token absolute positions are contiguous 1-based indexes
   into the document token array *)
let words_between c ~doc lo hi =
  match (c.count_stops, c.count_env) with
  | Some stops, Some env ->
      let tokens = Ftindex.Inverted.tokens_of_doc (Env.index env) ~doc in
      let n = Array.length tokens in
      let count = ref 0 in
      for p = lo + 1 to hi - 1 do
        if p >= 1 && p <= n then begin
          let t = tokens.(p - 1) in
          if not (Tokenize.Stopwords.Set.mem stops t.Tokenize.Token.norm) then
            incr count
        end
      done;
      !count
  (* clamp so two entries at the same position (FTAnd duplicating a word)
     are 0 apart, like the stop-word-counting branch above *)
  | _ -> max 0 (hi - lo - 1)

(* counted window span of [lo, hi]: the two endpoints plus the counted
   words between them *)
let word_span c ~doc lo hi =
  if lo = hi then 1 else 2 + words_between c ~doc (min lo hi) (max lo hi)

let entry_doc e = Ftindex.Posting.doc e.posting

(* Distance between two adjacent positions: counted words in between (unit
   words), or difference of sentence/paragraph ordinals. *)
let pair_distance c unit_ e1 e2 =
  let p1 = unit_pos unit_ e1 and p2 = unit_pos unit_ e2 in
  match unit_ with
  | Words -> words_between c ~doc:(entry_doc e1) (min p1 p2) (max p1 p2)
  | Sentences | Paragraphs -> abs (p2 - p1)

(* Range upper bound, used for score damping. *)
let range_bound = function
  | Exactly n -> Some n
  | At_most n -> Some n
  | From_to (_, hi) -> Some hi
  | At_least _ -> None

(* FTDistance: every pair of adjacent include positions satisfies the range
   (the paper's FTWordDistanceAtMost generalized to all four range kinds).
   Excludes survive only if they fall inside the span where they could
   violate/confirm the condition. *)
let distance_match ?(counting = plain_counting) range unit_ m =
  (
  let c = counting in
  let filter_match m =
    if List.length m.includes < 2 then Some m
    else if not (same_doc m.includes) then None
    else begin
      let sorted =
        List.sort
          (fun x y ->
            compare (Ftindex.Posting.abs_pos x.posting) (Ftindex.Posting.abs_pos y.posting))
          m.includes
      in
      let rec distances acc = function
        | x :: (y :: _ as rest) ->
            distances (pair_distance c unit_ x y :: acc) rest
        | _ -> List.rev acc
      in
      let ds = distances [] sorted in
      if List.for_all (in_range range) ds then begin
        let lo = unit_pos unit_ (List.hd sorted)
        and hi = unit_pos unit_ (List.nth sorted (List.length sorted - 1)) in
        let keep_exclude e =
          same_doc (e :: m.includes)
          && unit_pos unit_ e >= lo && unit_pos unit_ e <= hi
        in
        let max_d = List.fold_left max 0 ds in
        let damping =
          match range_bound range with
          | Some bound when bound > 0 ->
              1.0 -. (float_of_int max_d /. float_of_int (bound + 1))
          | _ -> 1.0
        in
        Some
          {
            m with
            excludes = List.filter keep_exclude m.excludes;
            score = clamp_score (m.score *. damping);
          }
      end
      else None
    end
  in
  filter_match m)

let ft_distance ?counting range unit_ a =
  { a with matches = List.filter_map (distance_match ?counting range unit_) a.matches }

(* FTWindow: all include positions fit in a window of n units. *)
let window_match ?(counting = plain_counting) n unit_ m =
  (
  let c = counting in
  let filter_match m =
    match m.includes with
    | [] -> Some m
    | first :: _ ->
        if not (same_doc m.includes) then None
        else begin
          let positions = List.map (unit_pos unit_) m.includes in
          let lo = List.fold_left min (unit_pos unit_ first) positions
          and hi = List.fold_left max (unit_pos unit_ first) positions in
          let span =
            match unit_ with
            | Words -> word_span c ~doc:(entry_doc first) lo hi
            | Sentences | Paragraphs -> hi - lo + 1
          in
          if span <= n then begin
            let keep_exclude e =
              same_doc (e :: m.includes)
              && unit_pos unit_ e >= lo && unit_pos unit_ e <= hi
            in
            let damping =
              if n > 0 then 1.0 -. (float_of_int (span - 1) /. float_of_int (n + 1))
              else 1.0
            in
            Some
              {
                m with
                excludes = List.filter keep_exclude m.excludes;
                score = clamp_score (m.score *. damping);
              }
          end
          else None
        end
  in
  filter_match m)

let ft_window ?counting n unit_ a =
  { a with matches = List.filter_map (window_match ?counting n unit_) a.matches }

(* Approximate matching (the closing direction of Section 3.3: "if two
   matches do not satisfy a distance, they might be returned with a lower
   score").  The approximate variants keep every match: satisfying matches
   get the usual damped score, failing ones are penalized in proportion to
   how far they miss the constraint.  Useful under ft:score, where a hard
   filter would zero out near misses. *)

let miss_factor ~bound ~actual =
  (* in (0,1), smaller the further the miss *)
  let b = float_of_int (max 0 bound) and d = float_of_int (max 0 actual) in
  Float.max 0.05 ((b +. 1.0) /. (d +. 1.0))

let distance_match_approx ?(counting = plain_counting) range unit_ m =
  match distance_match ~counting range unit_ m with
  | Some m' -> Some m'
  | None ->
      if m.includes = [] || not (same_doc m.includes) then None
      else begin
        let sorted =
          List.sort
            (fun x y ->
              compare (Ftindex.Posting.abs_pos x.posting)
                (Ftindex.Posting.abs_pos y.posting))
            m.includes
        in
        let rec worst acc = function
          | x :: (y :: _ as rest) ->
              worst (max acc (pair_distance counting unit_ x y)) rest
          | _ -> acc
        in
        let actual = worst 0 sorted in
        let factor =
          match range with
          | At_most b | Exactly b | From_to (_, b) -> miss_factor ~bound:b ~actual
          | At_least lo ->
              (* too close: penalize by how much closer than allowed *)
              Float.max 0.05 (float_of_int (actual + 1) /. float_of_int (lo + 1))
        in
        Some { m with score = clamp_score (m.score *. factor) }
      end

let window_match_approx ?(counting = plain_counting) n unit_ m =
  match window_match ~counting n unit_ m with
  | Some m' -> Some m'
  | None ->
      if m.includes = [] || not (same_doc m.includes) then None
      else begin
        let positions = List.map (unit_pos unit_) m.includes in
        let lo = List.fold_left min max_int positions
        and hi = List.fold_left max min_int positions in
        let span =
          match unit_ with
          | Words -> word_span counting ~doc:(entry_doc (List.hd m.includes)) lo hi
          | Sentences | Paragraphs -> hi - lo + 1
        in
        Some
          {
            m with
            score = clamp_score (m.score *. miss_factor ~bound:n ~actual:span);
          }
      end

let ft_distance_approx ?counting range unit_ a =
  {
    a with
    matches = List.filter_map (distance_match_approx ?counting range unit_) a.matches;
  }

let ft_window_approx ?counting n unit_ a =
  {
    a with
    matches = List.filter_map (window_match_approx ?counting n unit_) a.matches;
  }

(* FTScope: same/different sentence or paragraph across all includes. *)
let scope_ok kind m =
  (
  let proj, same =
    match kind with
    | Xquery.Ast.Same_sentence -> (Sentences, true)
    | Xquery.Ast.Same_paragraph -> (Paragraphs, true)
    | Xquery.Ast.Different_sentence -> (Sentences, false)
    | Xquery.Ast.Different_paragraph -> (Paragraphs, false)
  in
  let ok m =
    match m.includes with
    | [] | [ _ ] -> true
    | entries ->
        same_doc entries
        &&
        let ids = List.map (unit_pos proj) entries in
        if same then List.for_all (fun i -> i = List.hd ids) ids
        else
          let sorted = List.sort compare ids in
          let rec distinct = function
            | x :: (y :: _ as rest) -> x <> y && distinct rest
            | _ -> true
          in
          distinct sorted
  in
  ok m)

let ft_scope kind a = { a with matches = List.filter (scope_ok kind) a.matches }

(* FTTimes ("occurs <range> times"): combine occurrences.  Because a node's
   contained positions form a contiguous run in document order (Dewey
   pre-order), it suffices to emit *consecutive* windows of k occurrences:
   a node contains some k-subset iff it contains k consecutive occurrences.
   For exact/upper-bounded counts the window's complement becomes
   StringExcludes, forbidding additional occurrences inside the node.  This
   keeps the output linear instead of exponential; Section 4.1 calls FTTimes
   the one partially-blocking primitive, which this construction reflects —
   it must see all occurrences of a document before emitting. *)
let ft_times range a =
  (* Normalize the range to lo / optional hi.  Upper-bounded counts need
     StringExcludes forbidding further occurrences inside the answer node. *)
  let lo, hi =
    match range with
    | Exactly n -> (n, Some n)
    | At_most n -> (0, Some n)
    | At_least n -> (max 0 n, None)
    | From_to (l, h) -> (max 0 l, Some h)
  in
  let needs_excludes = hi <> None in
  (* group matches by document of their first include; includeless matches
     do not denote an occurrence and are dropped *)
  let by_doc = Hashtbl.create 8 in
  List.iter
    (fun m ->
      match m.includes with
      | [] -> ()
      | e :: _ ->
          let doc = Ftindex.Posting.doc e.posting in
          let prev = Option.value ~default:[] (Hashtbl.find_opt by_doc doc) in
          Hashtbl.replace by_doc doc (m :: prev))
    a.matches;
  let windows ms =
    (* [by_doc] accumulates by prepending, so [List.rev] restores input
       order; the sort must then be stable so ties on the first position
       (FTAnd can duplicate a word) enumerate the same windows as the
       fts-module implementation, whose order-by keeps input order too *)
    let arr =
      Array.of_list
        (List.stable_sort
           (fun m1 m2 ->
             compare
               (Ftindex.Posting.abs_pos (List.hd m1.includes).posting)
               (Ftindex.Posting.abs_pos (List.hd m2.includes).posting))
           (List.rev ms))
    in
    let n = Array.length arr in
    let result = ref [] in
    (* windows of k >= 1 consecutive occurrences *)
    let emit k =
      for start = 0 to n - k do
        let window = Array.sub arr start k in
        let includes = List.concat_map (fun m -> m.includes) (Array.to_list window) in
        let excludes =
          if needs_excludes then begin
            let outside = ref [] in
            Array.iteri
              (fun i m ->
                if i < start || i >= start + k then
                  outside := m.includes @ !outside)
              arr;
            !outside
          end
          else []
        in
        let score = Array.fold_left (fun acc m -> acc *. m.score) 1.0 window in
        result :=
          make_match ~excludes ~score:(clamp_score score) includes :: !result
      done
    in
    (match hi with
    | None -> if lo >= 1 && lo <= n then emit lo
    | Some h ->
        for j = max 1 lo to min h n do
          emit j
        done);
    !result
  in
  let matches = Hashtbl.fold (fun _doc ms acc -> windows ms @ acc) by_doc [] in
  (* The zero-occurrence case cannot be a per-document window: "exactly 0"
     must exclude occurrences from every document an answer node could be
     in, and "at least 0" is trivially true. *)
  let matches =
    if lo = 0 then
      match hi with
      | None -> make_match [] :: matches
      | Some _ ->
          let all_includes = List.concat_map (fun m -> m.includes) a.matches in
          make_match ~excludes:all_includes [] :: matches
    else matches
  in
  { a with matches }

(* FTContent anchors are recorded and checked per node at FTContains time. *)
let ft_content anchor a = { a with anchors = anchor :: a.anchors }

(* --- FTContains (paper Section 3.2.3.1, satisfiesMatch) --- *)

let entry_in_node index e ~doc ~node_dewey =
  Ftindex.Inverted.position_in_node index e.posting ~doc ~node_dewey

let anchors_ok env ~doc ~node_dewey anchors m =
  anchors = []
  ||
  match Ftindex.Inverted.node_extent (Env.index env) ~doc ~node_dewey with
  | None -> false
  | Some (first, last) ->
      let positions =
        List.map (fun e -> Ftindex.Posting.abs_pos e.posting) m.includes
      in
      (match positions with
      | [] -> false
      | _ ->
          let lo = List.fold_left min max_int positions
          and hi = List.fold_left max min_int positions in
          List.for_all
            (function
              | Xquery.Ast.At_start -> lo = first
              | Xquery.Ast.At_end -> hi = last
              | Xquery.Ast.Entire_content -> lo = first && hi = last)
            anchors)

let satisfies_match env ~doc ~node_dewey anchors m =
  let index = Env.index env in
  List.for_all (entry_in_node index ~doc ~node_dewey) m.includes
  && (not (List.exists (entry_in_node index ~doc ~node_dewey) m.excludes))
  && anchors_ok env ~doc ~node_dewey anchors m

(* Matches a node satisfies — used both by FTContains (non-empty?) and by
   per-node scoring. *)
let matches_for_node env node a =
  let index = Env.index env in
  match Ftindex.Inverted.doc_of_node index node with
  | None -> []
  | Some doc ->
      let node_dewey = Xmlkit.Node.dewey node in
      List.filter (satisfies_match env ~doc ~node_dewey a.anchors) a.matches

let node_satisfies env node a = matches_for_node env node a <> []

let ft_contains env nodes a = List.exists (fun n -> node_satisfies env n a) nodes

(* The FTIgnoreOption ("without content Expr"): positions inside ignored
   subtrees may not contribute to matches.  Matches relying on an ignored
   include are dropped; excludes inside ignored subtrees are waived. *)
let apply_ignore env ignored_nodes a =
  let index = Env.index env in
  let ignored e =
    List.exists
      (fun n ->
        match Ftindex.Inverted.doc_of_node index n with
        | None -> false
        | Some doc ->
            Ftindex.Inverted.position_in_node index e.posting ~doc
              ~node_dewey:(Xmlkit.Node.dewey n))
      ignored_nodes
  in
  {
    a with
    matches =
      List.filter_map
        (fun m ->
          if List.exists ignored m.includes then None
          else Some { m with excludes = List.filter (fun e -> not (ignored e)) m.excludes })
        a.matches;
  }
