(* Write-ahead log for live index updates (see wal.mli for the contract
   and the on-disk format).

   Layout of the WAL file inside a snapshot directory:

     record*        each: u32 len | u32 crc32(len bytes) | payload
                          | u32 crc32(payload)
     record 0       header payload: magic "GTXWAL1\n", u32 version,
                    u32 base generation
     record 1..n    op payload: u8 tag ('A' add | 'R' remove), u32 seq,
                    str uri, (add only) str source

   The separate length checksum is what makes tear-vs-corruption decidable
   under the fault model "a torn write shortens, a bit flip alters": if the
   file ends inside a record's promised extent the tail is torn (only the
   last append can be); if the bytes are all present but a checksum or the
   payload structure is wrong, the log is corrupt in the middle and
   recovery must not silently drop acknowledged updates — GTLX0010. *)

let wal_name = "WAL"
let wal_magic = "GTXWAL1\n"
let wal_version = 1

type op = Add_doc of { uri : string; source : string } | Remove_doc of string
type record = { seq : int; op : op }

let err = Xquery.Errors.raise_error

(* --- little-endian codec (mirrors the store's) --- *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

let put_u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))

let put_u32 b v =
  for i = 0 to 3 do
    put_u8 b (v lsr (8 * i))
  done

let put_str b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let u32_bytes v =
  let b = Buffer.create 4 in
  put_u32 b v;
  Buffer.contents b

type reader = { data : string; mutable pos : int }

let need r n =
  if n < 0 || r.pos + n > String.length r.data then corrupt "truncated payload"

let get_u8 r =
  need r 1;
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let get_u32 r =
  let v = ref 0 in
  for i = 0 to 3 do
    v := !v lor (get_u8 r lsl (8 * i))
  done;
  !v

let get_str r =
  let n = get_u32 r in
  need r n;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

(* --- framing --- *)

let frame payload =
  let b = Buffer.create (String.length payload + 16) in
  put_u32 b (String.length payload);
  put_u32 b (Store.crc32 (u32_bytes (String.length payload)));
  Buffer.add_string b payload;
  put_u32 b (Store.crc32 payload);
  Buffer.contents b

let header_payload ~generation ~epoch =
  let b = Buffer.create 20 in
  Buffer.add_string b wal_magic;
  put_u32 b wal_version;
  put_u32 b generation;
  put_u32 b epoch;
  Buffer.contents b

let op_payload ~seq op =
  let b = Buffer.create 64 in
  (match op with
  | Add_doc { uri; source } ->
      put_u8 b (Char.code 'A');
      put_u32 b seq;
      put_str b uri;
      put_str b source
  | Remove_doc uri ->
      put_u8 b (Char.code 'R');
      put_u32 b seq;
      put_str b uri);
  Buffer.contents b

let decode_op payload =
  let r = { data = payload; pos = 0 } in
  let record =
    match Char.chr (get_u8 r) with
    | 'A' ->
        let seq = get_u32 r in
        let uri = get_str r in
        let source = get_str r in
        { seq; op = Add_doc { uri; source } }
    | 'R' ->
        let seq = get_u32 r in
        { seq; op = Remove_doc (get_str r) }
    | c -> corrupt "unknown record tag %C" c
    | exception Invalid_argument _ -> corrupt "record tag out of range"
  in
  if r.pos <> String.length payload then corrupt "trailing bytes in record";
  record

(* Scan the raw file contents into framed payloads.  Returns the list of
   payloads, the size of the valid prefix, and whether a torn tail was
   dropped.  Corruption raises [Corrupt]. *)
let scan data =
  let size = String.length data in
  let payloads = ref [] in
  let pos = ref 0 in
  let torn = ref false in
  (try
     while !pos < size do
       let rem = size - !pos in
       if rem < 8 then begin
         (* not even a complete length + length checksum: torn tail *)
         torn := true;
         raise Exit
       end;
       let r = { data; pos = !pos } in
       let len = get_u32 r in
       let hcrc = get_u32 r in
       if hcrc <> Store.crc32 (u32_bytes len) then
         corrupt "record length checksum mismatch at byte %d" !pos;
       if rem < 8 + len + 4 then begin
         (* the length is trustworthy and promises more bytes than the
            file holds: a torn final append *)
         torn := true;
         raise Exit
       end;
       let payload = String.sub data (!pos + 8) len in
       let pcrc =
         let r = { data; pos = !pos + 8 + len } in
         get_u32 r
       in
       if pcrc <> Store.crc32 payload then
         corrupt "record checksum mismatch at byte %d" !pos;
       payloads := payload :: !payloads;
       pos := !pos + 8 + len + 4
     done
   with Exit -> ());
  (List.rev !payloads, !pos, !torn)

type log = {
  base_generation : int;
  base_epoch : int;
  records : record list;
  truncated : bool;
  valid_bytes : int;
}

let wal_path dir = Filename.concat dir wal_name

let unreplayable fmt =
  Printf.ksprintf
    (fun m -> err Xquery.Errors.GTLX0010 "unreplayable update log: %s" m)
    fmt

let decode_header payload =
  let r = { data = payload; pos = 0 } in
  let magic = try String.sub payload 0 8 with Invalid_argument _ -> "" in
  if magic <> wal_magic then corrupt "bad log magic";
  r.pos <- 8;
  let version = get_u32 r in
  let generation = get_u32 r in
  (* optional trailing fencing epoch: pre-epoch headers end here *)
  let epoch = if r.pos < String.length payload then get_u32 r else 1 in
  if r.pos <> String.length payload then corrupt "trailing bytes in header";
  (version, generation, epoch)

let read_log ?(io = Store.Io.real ()) ~dir () =
  let path = wal_path dir in
  if not (Sys.file_exists path) then None
  else
    let data =
      try Store.Io.read_file io path
      with
      | Sys_error msg ->
          err Xquery.Errors.FODC0002 "cannot retrieve update log %s: %s" path
            msg
      | Unix.Unix_error (e, fn, _) ->
          err Xquery.Errors.FODC0002 "cannot retrieve update log %s: %s: %s"
            path fn (Unix.error_message e)
    in
    if String.length data = 0 then None
    else
      match scan data with
      | exception Corrupt reason -> unreplayable "%s: %s" path reason
      | payloads, valid_bytes, truncated -> (
          match payloads with
          | [] ->
              (* a non-empty file without even a complete header record:
                 the header is written atomically, so this is damage, not
                 a torn append *)
              if truncated then unreplayable "%s: torn or corrupt header" path
              else None
          | header :: ops -> (
              match decode_header header with
              | exception Corrupt reason -> unreplayable "%s: %s" path reason
              | version, _, _ when version <> wal_version ->
                  err Xquery.Errors.GTLX0007
                    "update log %s has format version %d, this build reads %d"
                    path version wal_version
              | _, base_generation, base_epoch -> (
                  match List.map decode_op ops with
                  | exception Corrupt reason ->
                      unreplayable "%s: %s" path reason
                  | records ->
                      (* sequence numbers must be dense from 1: a gap means
                         an acknowledged record vanished (e.g. a silently
                         torn append buried by later ones) — replaying the
                         survivors would diverge from the acknowledged
                         state without anyone noticing *)
                      List.iteri
                        (fun i r ->
                          if r.seq <> i + 1 then
                            unreplayable
                              "%s: sequence gap: record %d carries seq %d"
                              path (i + 1) r.seq)
                        records;
                      Some
                        { base_generation; base_epoch; records; truncated;
                          valid_bytes }
                  )))

(* --- applying operations --- *)

let apply ?config index op =
  match op with
  | Add_doc { uri; source } ->
      let root = Xmlkit.Parser.parse_document ~uri source in
      Indexer.add_document ?config (Inverted.remove_document index ~uri) ~uri root
  | Remove_doc uri -> Inverted.remove_document index ~uri

let replay ?config index records =
  List.fold_left
    (fun idx { seq; op } ->
      match apply ?config idx op with
      | idx -> idx
      | exception exn ->
          unreplayable "record %d cannot be applied: %s" seq
            (match Xquery.Errors.of_exn exn with
            | Some e -> Xquery.Errors.to_string e
            | None -> Printexc.to_string exn))
    index records

let fold_sources sources ops =
  List.fold_left
    (fun acc op ->
      match op with
      | Add_doc { uri; source } ->
          List.filter (fun (u, _) -> u <> uri) acc @ [ (uri, source) ]
      | Remove_doc uri -> List.filter (fun (u, _) -> u <> uri) acc)
    sources ops

(* --- resetting / appending --- *)

(* By default the log adopts the directory's current fencing epoch (from
   the manifest), so pre-failover callers never have to thread it. *)
let resolve_epoch ~dir = function
  | Some e -> e
  | None -> Option.value (Store.current_epoch ~dir) ~default:1

let reset ?(io = Store.Io.real ()) ~dir ~generation ?epoch () =
  let epoch = resolve_epoch ~dir epoch in
  let tmp = Filename.concat dir (wal_name ^ ".tmp") in
  Store.Io.write_file io tmp (frame (header_payload ~generation ~epoch));
  Store.Io.rename io tmp (wal_path dir);
  Store.Io.fsync_dir io dir

let seal ?(io = Store.Io.real ()) ~dir ~generation ~epoch () =
  (* a promotion that cannot stamp its timeline durably must fail
     structurally, never leak a raw I/O exception to the serving layer *)
  let wrap f =
    try f () with
    | Sys_error msg ->
        err Xquery.Errors.GTLX0008 "cannot seal update log: %s" msg
    | Unix.Unix_error (e, fn, _) ->
        err Xquery.Errors.GTLX0008 "cannot seal update log: %s: %s" fn
          (Unix.error_message e)
  in
  match read_log ~io ~dir () with
  | None -> wrap (fun () -> reset ~io ~dir ~generation ~epoch ())
  | Some log when log.base_generation <> generation ->
      (* stale log from before a compaction: nothing worth preserving *)
      wrap (fun () -> reset ~io ~dir ~generation ~epoch ())
  | Some log when log.base_epoch > epoch ->
      err Xquery.Errors.GTLX0013
        "cannot seal update log at epoch %d: it is already at epoch %d" epoch
        log.base_epoch
  | Some log ->
      (* rewrite the whole log — new header, identical records — with the
         same temp → fsync → rename discipline as reset, so a crash leaves
         the old timeline or the new one, never a torn mix *)
      let b = Buffer.create (log.valid_bytes + 16) in
      Buffer.add_string b (frame (header_payload ~generation ~epoch));
      List.iter
        (fun { seq; op } -> Buffer.add_string b (frame (op_payload ~seq op)))
        log.records;
      let tmp = Filename.concat dir (wal_name ^ ".tmp") in
      wrap (fun () ->
          Store.Io.write_file io tmp (Buffer.contents b);
          Store.Io.rename io tmp (wal_path dir);
          Store.Io.fsync_dir io dir)

type writer = {
  w_io : Store.Io.t;
  w_path : string;
  w_generation : int;
  w_epoch : int;
  mutable w_next_seq : int;
  mutable w_records : int;
  mutable w_good : int;  (* bytes of valid log, including the header *)
}

let header_size =
  String.length (frame (header_payload ~generation:1 ~epoch:1))

let open_writer ?(io = Store.Io.real ()) ~dir ~generation ?epoch () =
  let epoch = resolve_epoch ~dir epoch in
  let wrap_io f =
    match f () with
    | () -> ()
    | exception Sys_error msg ->
        err Xquery.Errors.GTLX0008 "cannot prepare update log: %s" msg
    | exception Unix.Unix_error (e, fn, _) ->
        err Xquery.Errors.GTLX0008 "cannot prepare update log: %s: %s" fn
          (Unix.error_message e)
  in
  let fresh () =
    wrap_io (fun () -> reset ~io ~dir ~generation ~epoch ());
    {
      w_io = io;
      w_path = wal_path dir;
      w_generation = generation;
      w_epoch = epoch;
      w_next_seq = 1;
      w_records = 0;
      w_good = header_size;
    }
  in
  let positioned log =
    if log.truncated then
      (* drop the torn tail physically so appends extend a clean log *)
      wrap_io (fun () -> Store.Io.truncate io (wal_path dir) log.valid_bytes);
    let last_seq = List.fold_left (fun acc r -> max acc r.seq) 0 log.records in
    {
      w_io = io;
      w_path = wal_path dir;
      w_generation = generation;
      w_epoch = epoch;
      w_next_seq = last_seq + 1;
      w_records = List.length log.records;
      w_good = log.valid_bytes;
    }
  in
  match read_log ~io ~dir () with
  | None -> fresh ()
  | Some log when log.base_generation <> generation ->
      (* stale: left behind by a compaction that could not reset it *)
      fresh ()
  | Some log when log.base_epoch > epoch ->
      (* the log already belongs to a newer primary timeline: the opener
         is the stale party; refusing here is the last fencing line before
         an old primary could append on a superseded timeline *)
      err Xquery.Errors.GTLX0013
        "update log is at epoch %d, opener is at stale epoch %d"
        log.base_epoch epoch
  | Some log when log.base_epoch < epoch -> (
      (* promotion: seal the follower's log onto the new epoch, keeping
         every acknowledged record *)
      wrap_io (fun () -> seal ~io ~dir ~generation ~epoch ());
      match read_log ~io ~dir () with
      | Some log -> positioned log
      | None -> fresh ())
  | Some log -> positioned log

let writer_generation w = w.w_generation
let writer_epoch w = w.w_epoch
let wal_records w = w.w_records
let wal_bytes w = w.w_good
let next_seq w = w.w_next_seq

let append w op =
  let seq = w.w_next_seq in
  let data = frame (op_payload ~seq op) in
  (* if the log file itself is absent (deleted out from under the writer,
     or a first append racing a crash between reset's rename and now) the
     append below creates it — and the new directory entry must be made
     durable too, or the first acknowledged record can vanish with the
     entry on a crash *)
  let created = not (Sys.file_exists w.w_path) in
  let repair () =
    (* best effort: cut any half-written garbage back to the known-good
       prefix so the next append does not bury it mid-log *)
    try Unix.truncate w.w_path w.w_good with Sys_error _ | Unix.Unix_error _ -> ()
  in
  match
    Store.Io.append_file w.w_io w.w_path data;
    if created then Store.Io.fsync_dir w.w_io (Filename.dirname w.w_path)
  with
  | () ->
      w.w_next_seq <- seq + 1;
      w.w_records <- w.w_records + 1;
      w.w_good <- w.w_good + String.length data;
      { seq; op }
  | exception Sys_error msg ->
      repair ();
      err Xquery.Errors.GTLX0008 "update log append failed: %s" msg
  | exception Unix.Unix_error (e, fn, _) ->
      repair ();
      err Xquery.Errors.GTLX0008 "update log append failed: %s: %s" fn
        (Unix.error_message e)

(* --- wire shipping (replication) --- *)

let encode_records records =
  let b = Buffer.create 256 in
  List.iter
    (fun { seq; op } -> Buffer.add_string b (frame (op_payload ~seq op)))
    records;
  Buffer.contents b

let decode_records data =
  match scan data with
  | exception Corrupt reason -> unreplayable "shipped records: %s" reason
  | payloads, _, torn -> (
      (* a wire transfer ships whole frames: a short tail here is lost
         bytes in transit, not a torn local append — never drop it *)
      if torn then unreplayable "shipped records: incomplete frame";
      match List.map decode_op payloads with
      | records -> records
      | exception Corrupt reason -> unreplayable "shipped records: %s" reason)

let select_fresh ~applied records =
  let next = ref (applied + 1) in
  let fresh = ref [] in
  List.iter
    (fun r ->
      if r.seq < !next then
        (* duplicate of an already-applied (or already-selected) record:
           the dense-seq invariant makes seq < next exactly that case *)
        ()
      else if r.seq = !next then begin
        fresh := r :: !fresh;
        incr next
      end
      else
        unreplayable "sequence gap in shipped records: expected seq %d, got %d"
          !next r.seq)
    records;
  List.rev !fresh
