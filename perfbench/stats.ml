(* Order statistics and span arithmetic shared by the benchmark and its
   tests.  Pure functions over plain arrays and lists. *)

(* Nearest-rank percentile: the smallest sample with at least [p] of the
   samples at or below it.  [p] in (0, 1]; [nan] on no samples. *)
let percentile samples p =
  let n = Array.length samples in
  if n = 0 then Float.nan
  else begin
    let sorted = Array.copy samples in
    Array.sort compare sorted;
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

(* Samples strictly above the nearest-rank [p] position: a tail percentile
   is trusted only when at least ten samples lie beyond it. *)
let beyond n p = n - int_of_float (Float.ceil (p *. float_of_int n))

let median samples = percentile samples 0.5

let mean samples =
  match Array.length samples with
  | 0 -> Float.nan
  | n -> Array.fold_left ( +. ) 0. samples /. float_of_int n

(* Total length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* A span's self time: its duration minus the part of it its children
   cover (children may overlap one another). *)
let self_time ~start ~finish children =
  Float.max 0. (finish -. start -. covered ~lo:start ~hi:finish children)
