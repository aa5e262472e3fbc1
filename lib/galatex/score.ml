(* Per-node answer scoring (paper Section 3.3): the final AllMatches carries
   one score per match; the score of a query answer (an XML node in the
   evaluation context) composes the scores of the matches the node
   satisfies.  The paper composes with the FTOr formula (noisy-or) and notes
   [max] as an alternative; both are provided. *)

type composition = Noisy_or | Max

let compose_noisy_or scores =
  (* right-associated product, matching the fts:noisyOr recursion in the
     XQuery module so the strategies agree bit-for-bit *)
  1.0 -. List.fold_right (fun s acc -> (1.0 -. s) *. acc) scores 1.0

let compose_max scores = List.fold_left Float.max 0.0 scores

let compose = function Noisy_or -> compose_noisy_or | Max -> compose_max

(* Score of one node against a final AllMatches, in one pass over the
   matches without collecting the satisfied ones.  Scores are combined
   while the recursion unwinds, i.e. from the last match back: the
   right-associated order of [compose_noisy_or], so the score is
   bit-identical (max is exact in any order). *)
type acc = { mutable acc : float }

let node_score ?(composition = Noisy_or) env node am =
  match Ft_ops.satisfies_in env node am.All_matches.anchors with
  | None -> 0.0
  | Some satisfies ->
      let satisfied = ref 0 in
      let r = { acc = (match composition with Noisy_or -> 1.0 | Max -> 0.0) } in
      let rec from_last = function
        | [] -> ()
        | (m : All_matches.match_) :: rest ->
            from_last rest;
            if satisfies m then begin
              incr satisfied;
              let s = m.All_matches.score in
              r.acc <-
                (match composition with
                | Noisy_or -> (1.0 -. s) *. r.acc
                | Max -> Float.max r.acc s)
            end
      in
      from_last am.All_matches.matches;
      if !satisfied = 0 then 0.0
      else
        let s = match composition with Noisy_or -> 1.0 -. r.acc | Max -> r.acc in
        (* requirement (i): a satisfying node scores in (0,1] *)
        if s <= 0.0 then epsilon_float else if s > 1.0 then 1.0 else s

let scores ?composition env nodes am =
  List.map (fun n -> node_score ?composition env n am) nodes

(* The two W3C scoring requirements (Section 2.2): used by tests and the S1
   experiment. *)
let requirement_zero_iff_no_match env node am =
  let s = node_score env node am in
  let satisfies = Ft_ops.node_satisfies env node am in
  (s = 0.0) = not satisfies && (s >= 0.0 && s <= 1.0)

let requirement_in_unit_interval s = s >= 0.0 && s <= 1.0
