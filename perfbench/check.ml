(* Correctness of daemon answers against in-process oracles.

   Daemons evaluate with their default (materialized) strategy; the
   oracle is an in-process [Native_pipelined] run over the same
   documents, so every check is also a cross-strategy check.  Items are
   compared in the daemon's own wire rendering. *)

let render v = List.map (Fmt.str "%a" Xquery.Value.pp_item) v

let oracle_items engine text =
  render (Galatex.Engine.run engine ~strategy:Galatex.Engine.Native_pipelined text)

type verdict = Ok | Wrong of string

let show items = "[" ^ String.concat "; " items ^ "]"

let items ~expected ~got =
  if expected = got then Ok
  else Wrong (Printf.sprintf "expected %s, got %s" (show expected) (show got))

(* ---------------------------------------------------------- top-k *)

let score_of item =
  let key = "score=\"" in
  let n = String.length item and k = String.length key in
  let rec find i =
    if i + k > n then None
    else if String.sub item i k = key then
      let j = try String.index_from item (i + k) '"' with Not_found -> n in
      float_of_string_opt (String.sub item (i + k) (j - i - k))
    else find (i + 1)
  in
  find 0

let descending_scores items =
  List.map (fun it -> Option.value (score_of it) ~default:Float.nan) items
  |> List.sort (fun a b -> compare b a)

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

(* The top [k] scores across per-shard answer lists: the reference a
   scatter-gather top-k must reproduce. *)
let merged_top_scores ~k per_shard = take k (descending_scores (List.concat per_shard))

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs a)

(* Equal as multisets of scores (order among tied results is free). *)
let scores ~expected ~got =
  let g = descending_scores got in
  if List.length g = List.length expected && List.for_all2 close expected g then Ok
  else
    Wrong
      (Printf.sprintf "expected scores %s, got %s"
         (show (List.map (Printf.sprintf "%.12g") expected))
         (show (List.map (Printf.sprintf "%.12g") g)))
