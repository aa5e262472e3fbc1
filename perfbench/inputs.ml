(* Workload definitions and the inputs each trial sends, all a pure function
   of (workload, seed, seconds): the same arguments give byte-identical
   documents, queries and update batches (see [fingerprint]).

   Each workload has a fixed set of query templates (its query suite);
   the seed draws the documents, the order queries arrive in, and the
   update batches.  Queries are sent in rounds of [round_len]: every round
   holds each template a fixed number of times, shuffled by the seed, so
   two seeds send the same mix and their timings stay comparable. *)

type family = Phrase | Boolean | Single | Topk10

let family_name = function
  | Phrase -> "phrase"
  | Boolean -> "boolean"
  | Single -> "single"
  | Topk10 -> "topk10"

let all_families = [ Phrase; Boolean; Single; Topk10 ]

type op =
  | Query of { family : family; text : string }
  | Update of Ftindex.Wal.op list

type event = { due : float;  (** seconds after the phase starts *) op : op }

(* How often each template appears in a round, within its family:
   [Uniform], or [Zipf_hot] (weight 1/rank, so a few templates dominate). *)
type popularity = Uniform | Zipf_hot

type workload = {
  name : string;
  books : int;
  shards : int;  (** 1 = one daemon; more = shard daemons behind a router *)
  rate : float;  (** open-loop queries per second *)
  popularity : popularity;
  update_rate : float;  (** batches per second in the update phase *)
  families : family list;
}

let workloads =
  [
    {
      name = "small-hot";
      books = 24;
      shards = 1;
      rate = 100.;
      popularity = Zipf_hot;
      update_rate = 20.;
      families = [ Phrase; Boolean; Single ];
    };
    {
      name = "sharded-topk";
      books = 100;
      shards = 2;
      rate = 15.;
      popularity = Uniform;
      update_rate = 10.;
      families = [ Topk10 ];
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* How a trial of [seconds] is split between its phases. *)
type phases = { open_s : float; closed_s : float; update_s : float }

let phases ~seconds =
  { open_s = 0.5 *. seconds; closed_s = 0.3 *. seconds; update_s = 0.2 *. seconds }

(* ------------------------------------------------------------ corpus *)

(* The R9 document shape: 2 sections x 3 paragraphs x 30 words over a
   150-word Zipf vocabulary. *)
let vocab_size = 150

let corpus ~seed ~books =
  Corpus.Generator.books
    {
      Corpus.Generator.default_profile with
      Corpus.Generator.seed;
      doc_count = books;
      sections_per_doc = 2;
      paras_per_section = 3;
      words_per_para = 30;
      vocab_size;
    }
  |> List.map (fun (uri, d) -> (uri, Xmlkit.Printer.to_string d))

let corpus_of w ~seed = corpus ~seed:((seed * 31) + 1) ~books:w.books

(* ------------------------------------------------------------ queries *)

let templates_per_family = 20

(* The query suite is drawn once, from this seed, for every run. *)
let suite_seed = 42

let trace_spec ~seed ~requests ~rate =
  {
    Workload.Trace.default_spec with
    Workload.Trace.seed;
    requests;
    rate;
    mix = { Workload.Trace.phrase = 0.4; boolean = 0.4; topk = 0.2 };
    popularity_skew = 0.;
    templates_per_family;
    vocab_size;
    vocab_skew = 1.0;
  }

let of_trace trace =
  Array.map
    (fun { Workload.Trace.due_ms; op } ->
      let op =
        match op with
        | Workload.Trace.Query { family; text; _ } ->
            let family =
              match family with
              | Workload.Trace.Phrase -> Phrase
              | Workload.Trace.Boolean -> Boolean
              | Workload.Trace.Topk -> Single
            in
            Query { family; text }
        | Workload.Trace.Update ops -> Update ops
      in
      { due = due_ms /. 1000.; op })
    trace

let distinct_queries ops =
  let seen = Hashtbl.create 64 in
  Array.to_list ops
  |> List.filter_map (fun op ->
         match op with
         | Query { family; text } when not (Hashtbl.mem seen text) ->
             Hashtbl.add seen text ();
             Some (family, text)
         | Query _ | Update _ -> None)
  |> Array.of_list

(* Phrase, boolean and single-word templates: the distinct queries of a
   long [Workload.Trace.generate] trace, in first-draw order. *)
let trace_templates () =
  distinct_queries
    (Array.map
       (fun e -> e.op)
       (of_trace (Workload.Trace.generate (trace_spec ~seed:suite_seed ~requests:2000 ~rate:1.))))

(* The paper's Section 2.2 top-10 FLWOR over two Zipf-drawn words. *)
let topk10_text a b =
  Printf.sprintf
    {|for $result at $rank in (for $node in collection()//book let $score := ft:score($node, "%s" && "%s") where $score > 0 order by $score descending return <result score="{$score}" id="{string($node/@id)}"/>) where $rank <= 10 return $result|}
    a b

let topk10_templates () =
  let vocab = Corpus.Vocab.create ~skew:1.0 vocab_size in
  let rng = Corpus.Splitmix.create suite_seed in
  List.init templates_per_family (fun _ ->
      let a = Corpus.Vocab.sample vocab rng in
      topk10_text a (Corpus.Vocab.sample vocab rng))
  |> List.sort_uniq compare
  |> List.map (fun q -> (Topk10, q))
  |> Array.of_list

let templates families =
  if families = [ Topk10 ] then topk10_templates () else trace_templates ()

let round_len = 100

let mix_weight = function Phrase -> 0.4 | Boolean -> 0.4 | Single -> 0.2 | Topk10 -> 1.0

(* One round: each template [max 1 (round_len * weight)] times, where a
   template's weight is its family's mix weight split over the family by
   [popularity]; unshuffled. *)
let round_of popularity templates =
  List.concat_map
    (fun family ->
      let mine = List.filter (fun (f, _) -> f = family) (Array.to_list templates) in
      let within =
        match popularity with
        | Uniform -> List.map (fun _ -> 1.) mine
        | Zipf_hot -> List.mapi (fun i _ -> 1. /. float_of_int (i + 1)) mine
      in
      let total = List.fold_left ( +. ) 0. within in
      List.concat
        (List.map2
           (fun t w ->
             let n = Float.round (float_of_int round_len *. mix_weight family *. w /. total) in
             List.init (max 1 (int_of_float n)) (fun _ -> t))
           mine within))
    all_families
  |> Array.of_list

(* [requests] queries due at [rate]: whole rounds, each shuffled anew. *)
let rounds ~seed ~requests ~rate round =
  let n = Array.length round in
  let order = ref [||] in
  Array.init requests (fun k ->
      if k mod n = 0 then begin
        order := Array.copy round;
        Corpus.Splitmix.shuffle (Corpus.Splitmix.create ((seed * 7919) + (k / n))) !order
      end;
      let family, text = !order.(k mod n) in
      { due = float_of_int k /. rate; op = Query { family; text } })

(* Update batches of 3 WAL operations (adds, and removals of earlier adds
   once there are some), due at [rate]. *)
let update_events ~seed ~batches ~rate =
  Workload.Trace.generate
    { (trace_spec ~seed ~requests:batches ~rate) with update_every = Some 1; update_batch = 3 }
  |> of_trace
  |> Array.to_list
  |> List.filter (fun e -> match e.op with Update _ -> true | Query _ -> false)
  |> Array.of_list

(* ------------------------------------------------------------- inputs *)

type t = {
  workload : workload;
  seed : int;
  sources : (string * string) list;  (** whole corpus, (uri, XML text) *)
  open_events : event array;  (** the open-loop phase *)
  phases : phases;
  closed_ops : op array;  (** whole rounds, which the closed loop cycles *)
  round : int;  (** queries per round *)
  update_batches : event array;  (** the update phase *)
  probe : (family * string) array;
      (** every template of every family, for the traced layer probe *)
}

let make w ~seed ~seconds =
  let p = phases ~seconds in
  let round = round_of w.popularity (templates w.families) in
  let n = Array.length round in
  let requests = max 1 (int_of_float (Float.round (p.open_s *. w.rate))) in
  let queries = rounds ~seed ~requests:((requests + n - 1) / n * n) ~rate:w.rate round in
  let batches = int_of_float (Float.round (p.update_s *. w.update_rate)) in
  {
    workload = w;
    seed;
    sources = corpus_of w ~seed;
    open_events = Array.sub queries 0 requests;
    phases = p;
    closed_ops = Array.map (fun e -> e.op) queries;
    round = n;
    update_batches = update_events ~seed:(seed + 7) ~batches ~rate:w.update_rate;
    probe = Array.append (trace_templates ()) (topk10_templates ());
  }

let op_to_string = function
  | Query { family; text } -> Printf.sprintf "Q %s %s" (family_name family) text
  | Update ops ->
      String.concat "; "
        (List.map
           (function
             | Ftindex.Wal.Add_doc { uri; source } -> Printf.sprintf "U+ %s %s" uri source
             | Ftindex.Wal.Remove_doc uri -> Printf.sprintf "U- %s" uri)
           ops)

(* Every byte the run sends, in order: the determinism witness. *)
let fingerprint t =
  let buf = Buffer.create 65536 in
  List.iter (fun (uri, src) -> Printf.bprintf buf "D %s %s\n" uri src) t.sources;
  let events tag =
    Array.iter (fun e -> Printf.bprintf buf "%s @%.6f %s\n" tag e.due (op_to_string e.op))
  in
  events "O" t.open_events;
  Array.iter (fun op -> Printf.bprintf buf "C %s\n" (op_to_string op)) t.closed_ops;
  events "U" t.update_batches;
  Array.iter (fun (f, q) -> Printf.bprintf buf "P %s %s\n" (family_name f) q) t.probe;
  Buffer.contents buf
