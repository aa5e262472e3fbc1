(* Expected answers for every reply the daemons gave.

   A single daemon's reply names the WAL sequence number it was answered
   at; the oracle replays the acknowledged operations in log order onto
   an in-process engine and answers at exactly that state.  Shard
   daemons are checked against one in-process engine per shard over the
   same partition of the documents, their answers merged the way a
   scatter-gather top-k must merge them. *)

module Engine = Galatex.Engine

type t = {
  shards : int;
  base : (string * string) list;
  mutable log : Ftindex.Wal.op array;  (** acknowledged ops, log order *)
  mutable cursor : (int * Engine.t) option;  (** (seq, engine at that seq) *)
  answers : (int * string, string list) Hashtbl.t;
  mutable shard_engines : Engine.t array option;
  union : Engine.t Lazy.t;  (** one engine over all base documents *)
}

let create ~shards base =
  {
    shards;
    base;
    log = [||];
    cursor = None;
    answers = Hashtbl.create 256;
    shard_engines = None;
    union = lazy (Engine.of_strings base);
  }

let set_log t ops = t.log <- Array.of_list ops

(* The single-daemon engine after the first [seq] logged operations;
   callers ask in ascending [seq] order, so the replay runs forward. *)
let engine_at t seq =
  let cur, engine =
    match t.cursor with
    | Some (cur, engine) when cur <= seq -> (cur, engine)
    | Some _ | None -> (0, Lazy.force t.union)
  in
  let engine = ref engine in
  for s = cur to seq - 1 do
    engine := Engine.apply_update !engine t.log.(s)
  done;
  t.cursor <- Some (seq, !engine);
  !engine

let shard_engines t =
  match t.shard_engines with
  | Some e -> e
  | None ->
      let e = Array.map Engine.of_strings (Corpus.Partition.split ~shards:t.shards t.base) in
      t.shard_engines <- Some e;
      e

(* Verdict on one reply's items. *)
let check t ~family ~seq ~text got =
  if t.shards = 1 then begin
    if seq > Array.length t.log then Check.Wrong (Printf.sprintf "reply at unknown seq %d" seq)
    else
      let expected =
        match Hashtbl.find_opt t.answers (seq, text) with
        | Some a -> a
        | None ->
            let a = Check.oracle_items (engine_at t seq) text in
            Hashtbl.replace t.answers (seq, text) a;
            a
      in
      Check.items ~expected ~got
  end
  else
    let per_shard =
      match Hashtbl.find_opt t.answers (-1, text) with
      | Some a -> a
      | None ->
          let a =
            List.concat_map
              (fun e -> Check.oracle_items e text)
              (Array.to_list (shard_engines t))
          in
          Hashtbl.replace t.answers (-1, text) a;
          a
    in
    if family = Inputs.Topk10 then
      Check.scores ~expected:(Check.merged_top_scores ~k:10 [ per_shard ]) ~got
    else Check.items ~expected:(Check.oracle_items (Lazy.force t.union) text) ~got

(* After the run: answers from engines built from scratch over the
   document set the acknowledged log leaves ([Wal.fold_sources]). *)
let final_checker t =
  let sources = Ftindex.Wal.fold_sources t.base (Array.to_list t.log) in
  let union = Engine.of_strings sources in
  let shards =
    if t.shards = 1 then [| union |]
    else Array.map Engine.of_strings (Corpus.Partition.split ~shards:t.shards sources)
  in
  fun ~family ~text got ->
    if t.shards > 1 && family = Inputs.Topk10 then
      Check.scores
        ~expected:
          (Check.merged_top_scores ~k:10
             (List.map (fun e -> Check.oracle_items e text) (Array.to_list shards)))
        ~got
    else Check.items ~expected:(Check.oracle_items union text) ~got

(* Top-k scores from one engine over the union of the shards' documents
   after the logged updates: what a router with corpus-wide statistics
   would return. *)
let union_top_scores t =
  let union = lazy (Engine.of_strings (Ftindex.Wal.fold_sources t.base (Array.to_list t.log))) in
  fun text -> Check.descending_scores (Check.oracle_items (Lazy.force union) text)
