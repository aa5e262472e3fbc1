(* Top-k evaluation over ft:score (paper Sections 2.2 and 4.2).

   The naive plan — the paper's own example query — scores every node in the
   evaluation context and sorts.  Section 4.2 proposes pruning with score
   upper bounds so nodes that cannot enter the top k stop being evaluated
   early.  Here the unit of work is one satisfiesMatch test (include /
   exclude containment checks against one candidate node); matches are
   scanned in descending score order and a node is abandoned as soon as the
   noisy-or of its accumulated score with *all* remaining matches' scores —
   an upper bound on its final score — cannot beat the current k-th best. *)

type result = { node : Xmlkit.Node.t; score : float }

type stats = {
  mutable match_tests : int;  (** satisfiesMatch evaluations performed *)
  mutable nodes_pruned : int;  (** nodes abandoned before exhausting matches *)
}

let sorted_matches (am : All_matches.t) =
  List.sort
    (fun (a : All_matches.match_) b -> compare b.All_matches.score a.All_matches.score)
    am.All_matches.matches

(* suffix.(i) = product of (1 - score) over matches i.. — so the best score
   reachable from matches i.. alone is 1 - suffix.(i). *)
let suffix_complements matches =
  let n = List.length matches in
  let arr = Array.make (n + 1) 1.0 in
  let rec fill i = function
    | [] -> ()
    | (m : All_matches.match_) :: rest ->
        fill (i + 1) rest;
        arr.(i) <- arr.(i + 1) *. (1.0 -. m.All_matches.score)
  in
  fill 0 matches;
  arr

let node_infos env nodes =
  List.filter_map
    (fun n ->
      match Ftindex.Inverted.doc_of_node (Env.index env) n with
      | Some doc -> Some (n, doc, Xmlkit.Node.dewey n)
      | None -> None)
    nodes

(* exact score of one node, counting work *)
let score_node env stats anchors matches (_, doc, node_dewey) =
  let complement = ref 1.0 in
  List.iter
    (fun (m : All_matches.match_) ->
      stats.match_tests <- stats.match_tests + 1;
      if Ft_ops.satisfies_match env ~doc ~node_dewey anchors m then
        complement := !complement *. (1.0 -. m.All_matches.score))
    matches;
  1.0 -. !complement

let top_k_naive env nodes am k =
  let stats = { match_tests = 0; nodes_pruned = 0 } in
  let matches = sorted_matches am in
  let scored =
    List.map
      (fun ((n, _, _) as info) ->
        { node = n; score = score_node env stats am.All_matches.anchors matches info })
      (node_infos env nodes)
  in
  let sorted =
    List.stable_sort (fun a b -> compare b.score a.score) scored
    |> List.filteri (fun i _ -> i < k)
    |> List.filter (fun r -> r.score > 0.0)
  in
  (sorted, stats)

let top_k_pruned env nodes am k =
  let stats = { match_tests = 0; nodes_pruned = 0 } in
  let anchors = am.All_matches.anchors in
  (* a node can only satisfy matches of its own document, so both the scan
     and the upper bound are per document: the bound assumes the node
     satisfies every *remaining same-document* match, which is far tighter
     than assuming it satisfies every remaining match anywhere *)
  let by_doc = Hashtbl.create 16 in
  List.iter
    (fun (m : All_matches.match_) ->
      match m.All_matches.includes with
      | [] ->
          (* includeless matches constrain every document *)
          let prev = Option.value ~default:[] (Hashtbl.find_opt by_doc "") in
          Hashtbl.replace by_doc "" (m :: prev)
      | e :: _ ->
          let doc = Ftindex.Posting.doc e.All_matches.posting in
          let prev = Option.value ~default:[] (Hashtbl.find_opt by_doc doc) in
          Hashtbl.replace by_doc doc (m :: prev))
    am.All_matches.matches;
  let universal = Option.value ~default:[] (Hashtbl.find_opt by_doc "") in
  let per_doc = Hashtbl.create 16 in
  Hashtbl.iter
    (fun doc ms ->
      if doc <> "" then begin
        let sorted =
          List.sort
            (fun (a : All_matches.match_) b ->
              compare b.All_matches.score a.All_matches.score)
            (universal @ ms)
        in
        Hashtbl.replace per_doc doc (sorted, suffix_complements sorted)
      end)
    by_doc;
  let universal_sorted =
    List.sort
      (fun (a : All_matches.match_) b ->
        compare b.All_matches.score a.All_matches.score)
      universal
  in
  let universal_suffix = suffix_complements universal_sorted in
  (* current top-k kept as a sorted (ascending) list of [size] <= k
     results; the threshold is read on every match test, so the size is
     counted, not measured *)
  let top = ref [] and size = ref 0 in
  let threshold () =
    if !size < k then 0.0 else match !top with r :: _ -> r.score | [] -> 0.0
  in
  let insert r =
    let merged = List.sort (fun a b -> compare a.score b.score) (r :: !top) in
    if !size >= k then top := List.tl merged
    else begin
      top := merged;
      incr size
    end
  in
  List.iter
    (fun ((n, doc, node_dewey) : Xmlkit.Node.t * string * Xmlkit.Dewey.t) ->
      let matches, suffix =
        match Hashtbl.find_opt per_doc doc with
        | Some pair -> pair
        | None -> (universal_sorted, universal_suffix)
      in
      let complement = ref 1.0 in
      let abandoned = ref false in
      let rec scan i = function
        | [] -> ()
        | (m : All_matches.match_) :: rest ->
            (* upper bound on this node's final score: it satisfies every
               remaining same-document match *)
            let bound = 1.0 -. (!complement *. suffix.(i)) in
            if bound <= threshold () then begin
              stats.nodes_pruned <- stats.nodes_pruned + 1;
              abandoned := true
            end
            else begin
              stats.match_tests <- stats.match_tests + 1;
              if Ft_ops.satisfies_match env ~doc ~node_dewey anchors m then
                complement := !complement *. (1.0 -. m.All_matches.score);
              scan (i + 1) rest
            end
      in
      scan 0 matches;
      if not !abandoned then begin
        let score = 1.0 -. !complement in
        if score > threshold () && score > 0.0 then insert { node = n; score }
      end)
    (node_infos env nodes);
  (List.rev !top, stats)

let top_k ?g ?(pruned = true) env nodes am k =
  let ((_, stats) as result) =
    if pruned then top_k_pruned env nodes am k else top_k_naive env nodes am k
  in
  (match g with
  | Some g ->
      Xquery.Limits.count_topk g ~match_tests:stats.match_tests
        ~nodes_pruned:stats.nodes_pruned
  | None -> ());
  result
