(* The benchmark's own span recorder: one span per call into a layer,
   recorded from the benchmark's side of the boundary.  Spans of one
   request share its id; [parent] links a span to the one that caused
   it.  A disabled recorder records nothing and costs one branch. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  req : int;  (** request id shared by the spans of one request *)
  name : string;
  start : float;
  finish : float;
}

type t = {
  enabled : bool;
  lock : Mutex.t;
  mutable next : int;
  mutable spans : span list;  (** newest first *)
}

let create ~enabled = { enabled; lock = Mutex.create (); next = 0; spans = [] }
let disabled = create ~enabled:false

let fresh_id t =
  Mutex.lock t.lock;
  let id = t.next in
  t.next <- id + 1;
  Mutex.unlock t.lock;
  id

let add t span =
  Mutex.lock t.lock;
  t.spans <- span :: t.spans;
  Mutex.unlock t.lock

(* [with_span t ~req ~parent name f] runs [f id], where [id] is the new
   span's id for children to name as their parent. *)
let with_span t ?(parent = -1) ~req name f =
  if not t.enabled then f (-1)
  else begin
    let id = fresh_id t in
    let start = Unix.gettimeofday () in
    let finish () =
      add t { id; parent; req; name; start; finish = Unix.gettimeofday () }
    in
    match f id with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let spans t =
  Mutex.lock t.lock;
  let l = List.rev t.spans in
  Mutex.unlock t.lock;
  l

(* Self time of every span: its duration minus what its children cover. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then Hashtbl.add children s.parent (s.start, s.finish))
    spans;
  List.map
    (fun s ->
      ( s,
        Stats.self_time ~start:s.start ~finish:s.finish
          (Hashtbl.find_all children s.id) ))
    spans

(* Self times of the spans named [name], in seconds. *)
let self_times_of spans name =
  self_times spans
  |> List.filter_map (fun (s, self) -> if s.name = name then Some self else None)
  |> Array.of_list

let to_json_line s =
  Printf.sprintf
    {|{"id":%d,"parent":%d,"req":%d,"name":%S,"start":%.6f,"finish":%.6f}|}
    s.id s.parent s.req s.name s.start s.finish

let write_jsonl path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          output_string oc (to_json_line s);
          output_char oc '\n')
        spans)
