(* Corpus statistics and per-entry scores (Section 3.3).

   The paper requires each inverted-list entry to carry "the probability
   that the entry contains a given word", a value in (0,1], and suggests
   tf/idf.  We use a bounded tf.idf:

     score(w, d) = (0.5 + 0.5 * tf(w,d) / max_tf(d)) * idf_norm(w)
     idf_norm(w) = ln(1 + N / df(w)) / ln(1 + N)

   Both factors lie in (0,1], so the product does too, and the score grows
   with term frequency and rarity — enough for the probabilistic algebra's
   requirements to hold downstream.

   The first factor depends on one document only; the second on the whole
   corpus.  The index stores the first with each (word, document) slice and
   multiplies by the second when postings are read, so a corpus change
   never rewrites stored scores. *)

module SMap = Map.Make (String)

type doc_stats = {
  token_count : int;
  max_tf : int;
  tf : int SMap.t;  (** word -> occurrences in this document *)
}

type t = {
  doc_count : int;
  docs : doc_stats SMap.t;
  df : int SMap.t;  (** word -> number of documents containing it *)
}

let create () = { doc_count = 0; docs = SMap.empty; df = SMap.empty }

let add_document t ~doc tokens =
  if SMap.mem doc t.docs then
    invalid_arg ("Stats.add_document: duplicate document " ^ doc);
  let tf =
    Array.fold_left
      (fun m (tok : Tokenize.Token.t) ->
        SMap.update tok.Tokenize.Token.norm
          (function None -> Some 1 | Some c -> Some (c + 1))
          m)
      SMap.empty tokens
  in
  let max_tf = SMap.fold (fun _ c m -> max c m) tf 1 in
  {
    doc_count = t.doc_count + 1;
    docs =
      SMap.add doc { token_count = Array.length tokens; max_tf; tf } t.docs;
    df =
      SMap.fold
        (fun w _ df ->
          SMap.update w (function None -> Some 1 | Some n -> Some (n + 1)) df)
        tf t.df;
  }

let remove_document t ~doc =
  match SMap.find_opt doc t.docs with
  | None -> t
  | Some d ->
      {
        doc_count = t.doc_count - 1;
        docs = SMap.remove doc t.docs;
        (* drop zero entries so the tables match a from-scratch build *)
        df =
          SMap.fold
            (fun w _ df ->
              SMap.update w
                (function Some n when n > 1 -> Some (n - 1) | _ -> None)
                df)
            d.tf t.df;
      }

let doc_count t = t.doc_count
let document_frequency t w = Option.value ~default:0 (SMap.find_opt w t.df)

let term_frequency t ~doc w =
  match SMap.find_opt doc t.docs with
  | Some d -> Option.value ~default:0 (SMap.find_opt w d.tf)
  | None -> 0

let doc_token_count t ~doc =
  match SMap.find_opt doc t.docs with
  | Some s -> s.token_count
  | None -> 0

let idf_norm t w =
  let n = float_of_int (max 1 t.doc_count) in
  let df = float_of_int (max 1 (document_frequency t w)) in
  log (1.0 +. (n /. df)) /. log (1.0 +. n)

let tf_part t ~doc w =
  match SMap.find_opt doc t.docs with
  | None -> 1.0
  | Some { max_tf; tf; _ } -> (
      match SMap.find_opt w tf with
      | None -> 1.0
      | Some tf ->
          0.5 +. (0.5 *. float_of_int tf /. float_of_int (max 1 max_tf)))

let entry_score ~tf_part ~idf =
  let s = tf_part *. idf in
  (* clamp away from 0 for pathological corpora; scores must be (0,1] *)
  if s <= 0.0 then epsilon_float else if s > 1.0 then 1.0 else s
