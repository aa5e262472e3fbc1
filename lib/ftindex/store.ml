(* Crash-safe persistent snapshots of the inverted index (see store.mli
   for the contract).

   On-disk layout of a snapshot directory (format version 2):

     MANIFEST             framed manifest, written last (atomic switchover)
     doc-<gen>-NNNN.seg   one per document: its uri and XML source

   Every file shares one frame: magic (8 bytes), format version (u32),
   kind byte, payload length (u64), payload, CRC-32 of the payload.  The
   CRC is computed from scratch here (no external deps).  Generation
   numbers in segment file names let a new save coexist with the previous
   snapshot until the final manifest rename; stale generations are
   best-effort unlinked afterwards.

   The index is derived data, so a snapshot stores each document once, as
   source, and load re-derives the index with the same call `galatex
   index` uses (Indexer.index_documents under the manifest's tokenizer
   configuration): the loaded index equals a fresh build by construction.
   The manifest's per-document token counts and corpus totals check that
   derivation.  A damaged document segment is re-indexed from its
   original source text when the caller provides it.

   Version 1 snapshots (which also stored token streams and posting
   segments) fail to load and refuse to be overwritten with GTLX0007;
   re-index them with `galatex index`. *)

let format_magic = "GTXIDX1\n"
let format_version = 2
let manifest_name = "MANIFEST"

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3, polynomial 0xEDB88320), table-driven.           *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Binary codec: little-endian, length-prefixed strings.               *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

let put_u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))

let put_u32 b v =
  for i = 0 to 3 do
    put_u8 b (v lsr (8 * i))
  done

let put_u64 b v =
  for i = 0 to 7 do
    put_u8 b (v lsr (8 * i))
  done

let put_str b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

type reader = { data : string; mutable pos : int }

let reader data = { data; pos = 0 }

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

let get_u64 r =
  let v = ref 0 in
  for i = 0 to 7 do
    let byte = get_u8 r in
    if i = 7 && byte > 0x7F then corrupt "64-bit field out of range";
    v := !v lor (byte lsl (8 * i))
  done;
  !v

let get_str r =
  let n = get_u32 r in
  need r n;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

(* ------------------------------------------------------------------ *)
(* Deterministic I/O fault injection.                                  *)

module Io = struct
  type fault = Io_error | Crash | Torn_write of int | Bit_flip of int

  exception Crashed

  type t = { mutable op : int; mutable armed : (int * fault) option }

  let real () = { op = 0; armed = None }
  let with_fault ~at fault = { op = 0; armed = Some (at, fault) }
  let ops t = t.op

  let step t =
    t.op <- t.op + 1;
    match t.armed with
    | Some (at, f) when at = t.op ->
        t.armed <- None;
        Some f
    | _ -> None

  let fail () = raise (Sys_error "injected I/O failure (ENOSPC)")

  let flip_bit s off =
    if String.length s = 0 then s
    else begin
      let b = Bytes.of_string s in
      let i = off mod Bytes.length b in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
      Bytes.to_string b
    end

  (* Metadata operations (open, fsync, rename, ...): data faults are
     meaningless there and pass through. *)
  let guard t =
    match step t with
    | Some Io_error -> fail ()
    | Some Crash -> raise Crashed
    | Some (Torn_write _ | Bit_flip _) | None -> ()

  let write_all fd s =
    let n = String.length s in
    let off = ref 0 in
    while !off < n do
      off := !off + Unix.write_substring fd s !off (n - !off)
    done

  (* One logical "write the whole buffer" data operation. *)
  let write_file t path data =
    guard t (* open/create *);
    let fd =
      Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
    in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        (match step t with
        | Some Io_error ->
            (* ENOSPC partway through: a prefix may be durable *)
            write_all fd (String.sub data 0 (String.length data / 2));
            fail ()
        | Some Crash ->
            write_all fd (String.sub data 0 (String.length data / 2));
            raise Crashed
        | Some (Torn_write n) ->
            write_all fd (String.sub data 0 (min (max n 0) (String.length data)))
        | Some (Bit_flip off) -> write_all fd (flip_bit data off)
        | None -> write_all fd data);
        guard t (* fsync *);
        Unix.fsync fd)

  (* One logical "read the whole file" data operation.  Crash faults on
     the read side degrade to plain I/O errors: a reader cannot corrupt
     anything by dying, and [Crashed] must never escape a load. *)
  let read_file t path =
    (match step t with
    | Some (Io_error | Crash) -> fail ()
    | Some (Torn_write _ | Bit_flip _) | None -> ());
    let fd = Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let size = (Unix.fstat fd).Unix.st_size in
        let buf = Bytes.create size in
        let off = ref 0 in
        (try
           while !off < size do
             let n = Unix.read fd buf !off (size - !off) in
             if n = 0 then raise Exit else off := !off + n
           done
         with Exit -> ());
        let data = Bytes.sub_string buf 0 !off in
        match step t with
        | Some Io_error -> fail ()
        | Some Crash -> fail () (* a read-only load cannot "crash-corrupt" *)
        | Some (Torn_write n) ->
            String.sub data 0 (min (max n 0) (String.length data))
        | Some (Bit_flip off) -> flip_bit data off
        | None -> data)

  (* One logical "append the whole buffer" data operation (WAL records).
     Same fault semantics as [write_file]: ENOSPC / crash leave a durable
     half-written prefix, a torn write silently persists [n] bytes. *)
  let append_file t path data =
    guard t (* open/create *);
    let fd =
      Unix.openfile path
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ]
        0o644
    in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        (match step t with
        | Some Io_error ->
            write_all fd (String.sub data 0 (String.length data / 2));
            fail ()
        | Some Crash ->
            write_all fd (String.sub data 0 (String.length data / 2));
            raise Crashed
        | Some (Torn_write n) ->
            write_all fd (String.sub data 0 (min (max n 0) (String.length data)))
        | Some (Bit_flip off) -> write_all fd (flip_bit data off)
        | None -> write_all fd data);
        guard t (* fsync *);
        Unix.fsync fd)

  let rename t src dst =
    guard t;
    Unix.rename src dst

  let truncate t path len =
    guard t;
    Unix.truncate path len

  let unlink t path =
    guard t;
    Unix.unlink path

  let mkdir t path =
    guard t;
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

  let readdir t path =
    guard t;
    Sys.readdir path

  let fsync_dir t path =
    guard t;
    match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
    | exception Unix.Unix_error _ -> ()
    | fd ->
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
end

(* ------------------------------------------------------------------ *)
(* Framing: magic + version + kind + length-prefixed payload + CRC.    *)

let frame ~kind payload =
  let b = Buffer.create (String.length payload + 32) in
  Buffer.add_string b format_magic;
  put_u32 b format_version;
  put_u8 b (Char.code kind);
  put_u64 b (String.length payload);
  Buffer.add_string b payload;
  put_u32 b (crc32 payload);
  Buffer.contents b

type unframed =
  | Frame_ok of char * string  (** kind, payload *)
  | Frame_version of int  (** recognized snapshot file, other version *)
  | Frame_corrupt of string

let unframe data =
  try
    let r = reader data in
    need r 8;
    let m = String.sub data 0 8 in
    r.pos <- 8;
    if m <> format_magic then Frame_corrupt "bad magic"
    else
      let v = get_u32 r in
      if v <> format_version then Frame_version v
      else begin
        let kind = Char.chr (get_u8 r) in
        let len = get_u64 r in
        need r (len + 4);
        let payload = String.sub data r.pos len in
        r.pos <- r.pos + len;
        let crc = get_u32 r in
        if r.pos <> String.length data then Frame_corrupt "trailing bytes"
        else if crc <> crc32 payload then Frame_corrupt "checksum mismatch"
        else Frame_ok (kind, payload)
      end
  with Corrupt msg -> Frame_corrupt msg

(* ------------------------------------------------------------------ *)
(* Payload encodings.                                                  *)

let put_str_list b l =
  put_u32 b (List.length l);
  List.iter (put_str b) l

let get_str_list r = List.init (get_u32 r) (fun _ -> get_str r)

type mdoc = { m_uri : string; m_file : string; m_tokens : int }

type manifest = {
  gen : int;
  m_config : Tokenize.Segmenter.config;
  mdocs : mdoc list;
  m_total : int;  (** total tokens across the corpus *)
  m_words : int;  (** distinct-word count *)
  m_epoch : int;
      (** primary-failover fencing epoch: bumped durably on every
          promotion, carried across generations by {!save} *)
}

let encode_manifest m =
  let b = Buffer.create 1024 in
  put_u32 b m.gen;
  put_str_list b m.m_config.Tokenize.Segmenter.paragraph_elements;
  put_str_list b m.m_config.Tokenize.Segmenter.ignore_elements;
  put_u32 b (List.length m.mdocs);
  List.iter
    (fun d ->
      put_str b d.m_uri;
      put_str b d.m_file;
      put_u32 b d.m_tokens)
    m.mdocs;
  put_u64 b m.m_total;
  put_u32 b m.m_words;
  put_u32 b m.m_epoch;
  Buffer.contents b

let decode_manifest payload =
  let r = reader payload in
  let gen = get_u32 r in
  let paragraph_elements = get_str_list r in
  let ignore_elements = get_str_list r in
  let mdocs =
    List.init (get_u32 r) (fun _ ->
        let m_uri = get_str r in
        let m_file = get_str r in
        let m_tokens = get_u32 r in
        { m_uri; m_file; m_tokens })
  in
  let m_total = get_u64 r in
  let m_words = get_u32 r in
  let m_epoch = get_u32 r in
  if r.pos <> String.length payload then corrupt "trailing manifest bytes";
  let uris = List.map (fun d -> d.m_uri) mdocs in
  if List.length (List.sort_uniq compare uris) <> List.length uris then
    corrupt "duplicate document uri in manifest";
  { gen; m_config = { Tokenize.Segmenter.paragraph_elements; ignore_elements };
    mdocs; m_total; m_words; m_epoch }

let encode_doc ~uri ~source =
  let b = Buffer.create (String.length uri + String.length source + 8) in
  put_str b uri;
  put_str b source;
  Buffer.contents b

let decode_doc payload =
  let r = reader payload in
  let uri = get_str r in
  let source = get_str r in
  if r.pos <> String.length payload then corrupt "trailing document bytes";
  (uri, source)

(* ------------------------------------------------------------------ *)
(* Damage reporting.                                                   *)

type damage = { file : string; uri : string; reason : string }

type report = { damaged : damage list; reindexed : string list }

let clean r = r.damaged = []

let pp_report ppf r =
  if clean r then Format.fprintf ppf "snapshot loaded clean"
  else begin
    Format.fprintf ppf
      "salvaged snapshot: %d damaged segment(s), %d document(s) re-indexed"
      (List.length r.damaged)
      (List.length r.reindexed);
    List.iter
      (fun d ->
        Format.fprintf ppf "@\n  %s: %s (document %s)" d.file d.reason d.uri)
      r.damaged
  end

let report_to_string r = Format.asprintf "%a" pp_report r

(* ------------------------------------------------------------------ *)
(* Helpers shared by save and load.                                    *)

let storage_error code fmt = Xquery.Errors.raise_error code fmt

(* "doc-7-0003.seg" -> Some 7 *)
let gen_of_filename name =
  if Filename.check_suffix name ".seg" then
    match String.split_on_char '-' name with
    | "doc" :: gen :: _ -> int_of_string_opt gen
    | _ -> None
  else None

(* Plain-I/O, total read of the directory's manifest frame.  Deliberately
   not routed through a caller's injector: it is a read-only peek, and
   keeping it off the fault-op counter keeps the save/compact sweeps
   deterministic. *)
let peek_manifest ~dir =
  match Io.read_file (Io.real ()) (Filename.concat dir manifest_name) with
  | exception _ -> None
  | data -> Some (data, unframe data)

let decoded_manifest = function
  | Some (_, Frame_ok ('M', payload)) -> (
      match decode_manifest payload with
      | m -> Some m
      | exception Corrupt _ -> None)
  | Some (_, (Frame_ok _ | Frame_version _ | Frame_corrupt _)) | None -> None

(* The directory's current manifest, or [None] when there is no readable
   one: what [save] carries the fencing epoch from, and what the serving
   layer polls between requests. *)
let manifest_opt ~dir = decoded_manifest (peek_manifest ~dir)

(* ------------------------------------------------------------------ *)
(* Save.                                                               *)

let atomic_write io ~dir name data =
  let tmp = Filename.concat dir (name ^ ".tmp") in
  Io.write_file io tmp data;
  Io.rename io tmp (Filename.concat dir name)

let next_generation io dir =
  let files = Io.readdir io dir in
  Array.fold_left
    (fun acc name ->
      match gen_of_filename name with Some g -> max acc (g + 1) | None -> acc)
    1 files

let save ?(io = Io.real ()) ?(config = Tokenize.Segmenter.default_config)
    ?epoch ~dir index =
  let previous = peek_manifest ~dir in
  (* a manifest of another format version is refused, not treated as
     absent: replacing it would silently restart the fencing epoch *)
  (match previous with
  | Some (_, Frame_version v) ->
      storage_error Xquery.Errors.GTLX0007
        "cannot save into %s: it holds a format version %d snapshot and this \
         build writes version %d (re-index into a fresh directory with \
         galatex index)"
        dir v format_version
  | Some (_, (Frame_ok _ | Frame_corrupt _)) | None -> ());
  (* the fencing epoch survives compaction: a new generation into an
     existing directory keeps the directory's epoch unless the caller
     stamps one explicitly; a fresh directory starts at epoch 1 *)
  let epoch =
    match (epoch, decoded_manifest previous) with
    | Some e, _ -> e
    | None, Some m -> m.m_epoch
    | None, None -> 1
  in
  try
    Io.mkdir io dir;
    let gen = next_generation io dir in
    let mdocs =
      List.mapi
        (fun i (uri, root) ->
          let file = Printf.sprintf "doc-%d-%04d.seg" gen i in
          let source = Xmlkit.Printer.to_string root in
          atomic_write io ~dir file (frame ~kind:'D' (encode_doc ~uri ~source));
          {
            m_uri = uri;
            m_file = file;
            m_tokens = Array.length (Inverted.tokens_of_doc index ~doc:uri);
          })
        (Inverted.documents index)
    in
    let manifest =
      {
        gen;
        m_config = config;
        mdocs;
        m_total = Inverted.total_postings index;
        m_words = Inverted.distinct_word_count index;
        m_epoch = epoch;
      }
    in
    atomic_write io ~dir manifest_name (frame ~kind:'M' (encode_manifest manifest));
    Io.fsync_dir io dir;
    (* best-effort cleanup of stale generations and leftover temp files;
       the snapshot is already complete, so failures here are ignored *)
    (match Io.readdir io dir with
    | exception (Sys_error _ | Unix.Unix_error _) -> ()
    | files ->
        Array.iter
          (fun name ->
            let stale =
              Filename.check_suffix name ".tmp"
              || match gen_of_filename name with
                 | Some g -> g <> gen
                 | None -> false
            in
            if stale then
              try Io.unlink io (Filename.concat dir name)
              with Sys_error _ | Unix.Unix_error _ -> ())
          files)
  with
  | Sys_error msg ->
      storage_error Xquery.Errors.GTLX0008 "snapshot save to %s failed: %s" dir
        msg
  | Unix.Unix_error (e, fn, _) ->
      storage_error Xquery.Errors.GTLX0008 "snapshot save to %s failed: %s: %s"
        dir fn (Unix.error_message e)

(* ------------------------------------------------------------------ *)
(* Load.                                                               *)

(* Read and unframe one document segment; corruption is [Error reason], a
   version mismatch inside a segment too (the manifest's version is the
   snapshot's — a stray other-version segment is damage, and salvage
   applies). *)
let read_doc_segment io ~dir file =
  match Io.read_file io (Filename.concat dir file) with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Error "missing file"
  | exception Sys_error msg -> Error ("unreadable: " ^ msg)
  | exception Unix.Unix_error (e, _, _) ->
      Error ("unreadable: " ^ Unix.error_message e)
  | data -> (
      match unframe data with
      | Frame_version v -> Error (Printf.sprintf "format version %d" v)
      | Frame_corrupt reason -> Error reason
      | Frame_ok (k, _) when k <> 'D' ->
          Error (Printf.sprintf "wrong segment kind %C" k)
      | Frame_ok (_, payload) -> (
          match decode_doc payload with
          | doc -> Ok doc
          | exception Corrupt reason -> Error reason))

let read_manifest io ~dir =
  let path = Filename.concat dir manifest_name in
  match Io.read_file io path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
      storage_error Xquery.Errors.GTLX0008
        "incomplete snapshot: no %s in %s (crash before the manifest rename, \
         or not a snapshot directory)"
        manifest_name dir
  | exception Sys_error msg ->
      storage_error Xquery.Errors.GTLX0008 "cannot read snapshot manifest: %s"
        msg
  | exception Unix.Unix_error (e, _, _) ->
      storage_error Xquery.Errors.GTLX0008 "cannot read snapshot manifest: %s"
        (Unix.error_message e)
  | data -> (
      match unframe data with
      | Frame_version v ->
          storage_error Xquery.Errors.GTLX0007
            "snapshot format version %d; this build reads version %d \
             (re-index with galatex index)"
            v format_version
      | Frame_corrupt reason ->
          storage_error Xquery.Errors.GTLX0006 "corrupt snapshot manifest: %s"
            reason
      | Frame_ok (k, _) when k <> 'M' ->
          storage_error Xquery.Errors.GTLX0006
            "corrupt snapshot manifest: wrong segment kind %C" k
      | Frame_ok (_, payload) -> (
          match decode_manifest payload with
          | m -> m
          | exception Corrupt reason ->
              storage_error Xquery.Errors.GTLX0006
                "corrupt snapshot manifest: %s" reason))

type loaded = {
  index : Inverted.t;
  config : Tokenize.Segmenter.config;
  report : report;
  generation : int;
  epoch : int;
}

let current_generation ~dir = Option.map (fun m -> m.gen) (manifest_opt ~dir)

(* The complete file listing of the current snapshot, manifest first:
   what a replica must copy to hold a bit-identical base. *)
let snapshot_files ~dir =
  Option.map
    (fun m -> (m.gen, manifest_name :: List.map (fun d -> d.m_file) m.mdocs))
    (manifest_opt ~dir)

(* CRC-32 of the manifest *payload*.  Because every segment file's name
   and framing is fixed by its contents and the manifest names them all,
   two directories with equal manifest CRCs at the same generation hold
   the same snapshot bytes — the anti-entropy comparison is a single u32.

   Deliberately NOT a CRC of the raw file bytes: the frame ends in
   crc32(payload), and a CRC over a CRC-terminated message is
   self-cancelling — any two equal-length payloads with correctly
   stamped embedded CRCs hash to the same whole-file value (the CRC
   residue property), which would blind anti-entropy to every
   same-length divergence, an epoch bump being the canonical one. *)
let manifest_crc ~dir =
  match peek_manifest ~dir with
  | None -> None
  | Some (_, Frame_ok (_, payload)) -> Some (crc32 payload)
  (* unreadable frame: hash the raw bytes so the comparison still
     disagrees with any healthy peer and forces the repair *)
  | Some (data, (Frame_version _ | Frame_corrupt _)) -> Some (crc32 data)

let install_file ?(io = Io.real ()) ~dir ~name data =
  Io.mkdir io dir;
  atomic_write io ~dir name data

(* ------------------------------------------------------------------ *)
(* Fencing epoch.                                                      *)

let current_epoch ~dir = Option.map (fun m -> m.m_epoch) (manifest_opt ~dir)

let bump_epoch ?(io = Io.real ()) ~dir ~epoch () =
  match manifest_opt ~dir with
  | None ->
      storage_error Xquery.Errors.GTLX0008
        "cannot bump epoch: no readable manifest in %s" dir
  | Some m ->
      if epoch < m.m_epoch then
        storage_error Xquery.Errors.GTLX0013
          "epoch regression refused: %s is at epoch %d, asked to stamp %d" dir
          m.m_epoch epoch
      else if epoch = m.m_epoch then ()
      else begin
        (* same temp → fsync → rename discipline as save: a crash at any
           point leaves the old epoch or the new one, never a torn
           manifest *)
        try
          atomic_write io ~dir manifest_name
            (frame ~kind:'M' (encode_manifest { m with m_epoch = epoch }));
          Io.fsync_dir io dir
        with
        | Sys_error msg ->
            storage_error Xquery.Errors.GTLX0008 "epoch bump in %s failed: %s"
              dir msg
        | Unix.Unix_error (e, fn, _) ->
            storage_error Xquery.Errors.GTLX0008
              "epoch bump in %s failed: %s: %s" dir fn (Unix.error_message e)
      end

let load_manifest ~io ~governor ~sources ~dir m =
  let damaged = ref [] and fatal = ref [] in
  (* a document whose stored copy is unusable: parse its caller-provided
     source instead, or record it as unsalvageable *)
  let salvage md reason =
    damaged := { file = md.m_file; uri = md.m_uri; reason } :: !damaged;
    match List.assoc_opt md.m_uri sources with
    | Some source ->
        Some (md.m_uri, Xmlkit.Parser.parse_document ~uri:md.m_uri source)
    | None ->
        fatal := (md, reason) :: !fatal;
        None
  in
  let check_fatal () =
    if !fatal <> [] then
      storage_error Xquery.Errors.GTLX0006
        "unsalvageable snapshot: %s (no re-index source provided; pass the \
         original document(s) to recover)"
        (String.concat "; "
           (List.rev_map
              (fun (md, reason) ->
                Printf.sprintf "%s [%s]: %s" md.m_file md.m_uri reason)
              !fatal))
  in
  let stored md =
    Option.iter Xquery.Limits.io_tick governor;
    match read_doc_segment io ~dir md.m_file with
    | Error reason -> salvage md reason
    | Ok (uri, _) when uri <> md.m_uri ->
        salvage md "inconsistent with manifest"
    | Ok (uri, source) -> (
        match Xmlkit.Parser.parse_document ~uri source with
        | root -> Some (uri, root)
        | exception _ -> salvage md "stored XML does not parse")
  in
  (* (manifest entry, parsed document) in manifest (= indexing) order *)
  let docs = List.map (fun md -> (md, stored md)) m.mdocs in
  check_fatal ();
  let build docs =
    Indexer.index_documents ~config:m.m_config (List.filter_map snd docs)
  in
  let index = build docs in
  (* The manifest's token counts check the derivation: a stored document
     that no longer yields its count is damage like any other.  When
     every count matches but the corpus totals do not, no one document is
     to blame, so all of them are. *)
  let salvaged md = List.exists (fun d -> d.uri = md.m_uri) !damaged in
  let mismatched =
    List.filter
      (fun (md, _) ->
        (not (salvaged md))
        && Array.length (Inverted.tokens_of_doc index ~doc:md.m_uri)
           <> md.m_tokens)
      docs
  in
  let mismatched =
    if
      mismatched = [] && !damaged = []
      && (m.m_total <> Inverted.total_postings index
         || m.m_words <> Inverted.distinct_word_count index)
    then docs
    else mismatched
  in
  let index =
    if mismatched = [] then index
    else begin
      let docs =
        List.map
          (fun (md, doc) ->
            if List.mem_assq md mismatched then
              (md, salvage md "inconsistent with manifest")
            else (md, doc))
          docs
      in
      check_fatal ();
      build docs
    end
  in
  let damaged = List.rev !damaged in
  {
    index;
    config = m.m_config;
    report = { damaged; reindexed = List.map (fun d -> d.uri) damaged };
    generation = m.gen;
    epoch = m.m_epoch;
  }

(* Drive [load_manifest] with a bounded retry for the reader/writer race:
   a save replaces the manifest atomically but then unlinks the previous
   generation's segments, so a load that started on the old manifest can
   find its segments gone.  Damage (or an unsalvageable load) while the
   on-disk manifest has moved to a different generation is that race, not
   corruption — restart on the new manifest. *)
let load ?(io = Io.real ()) ?governor ?(sources = []) ~dir () =
  let max_attempts = 3 in
  let rec go attempt =
    Option.iter Xquery.Limits.io_tick governor;
    let m = read_manifest io ~dir in
    let moved_on () = current_generation ~dir <> Some m.gen in
    match load_manifest ~io ~governor ~sources ~dir m with
    | l when (not (clean l.report)) && attempt < max_attempts && moved_on () ->
        go (attempt + 1)
    | l -> l
    | exception Xquery.Errors.Error e
      when e.Xquery.Errors.code = Xquery.Errors.GTLX0006
           && attempt < max_attempts && moved_on () ->
        go (attempt + 1)
  in
  go 1
