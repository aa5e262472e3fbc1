(** Write-ahead log for live index updates.

    The snapshot store (see {!Store}) makes the index durable but only as a
    whole: any corpus change means a full save plus a reload.  The WAL adds
    an incremental update path on top of the {e current snapshot
    generation}: every accepted add / remove is first appended — framed and
    CRC-32-checksummed — to a [WAL] file inside the snapshot directory, and
    only then applied to the in-memory index.  Recovery replays the log
    idempotently onto the loaded snapshot, so

    {e snapshot generation + WAL offset define the exact index state across
    [kill -9] at any byte.}

    {b Record format.}  The log is a header record followed by operation
    records, all framed alike: [u32 len], [u32 crc32(len)], payload,
    [u32 crc32(payload)].  Checksumming the length separately lets recovery
    distinguish a {e torn tail} (the file ends before a record's promised
    extent — possible only for the last append, silently truncated) from
    {e mid-log corruption} (bytes present but a checksum fails — surfaced
    as structured code [GTLX0010], never silently dropped).  The header
    payload carries the format magic, version, and the {e base generation}:
    the snapshot generation the log extends.

    {b Idempotent replay.}  A log whose base generation differs from the
    manifest's is {e stale} — the crash happened after a compaction folded
    it into a new snapshot generation but before the log reset — and is
    ignored.  Replaying [Add_doc] for an existing uri replaces the
    document; [Remove_doc] of an absent uri is a no-op; so replaying a
    prefix twice converges.

    {b Compaction} (performed by [Engine.compact]) folds the log into a
    fresh snapshot generation via the store's atomic-manifest protocol,
    then resets the log to an empty one based on the new generation.

    All I/O goes through {!Store.Io}, so fault sweeps can drive every
    append / replay / compact operation index. *)

type op =
  | Add_doc of { uri : string; source : string }
      (** index (or replace) a document from its XML source text *)
  | Remove_doc of string  (** forget a document by uri *)

type record = { seq : int;  (** 1-based, dense *) op : op }

val wal_name : string
(** File name of the log within a snapshot directory (["WAL"]). *)

val wal_magic : string
val wal_version : int

(** {1 Applying operations} *)

val apply : ?config:Tokenize.Segmenter.config -> Inverted.t -> op -> Inverted.t
(** Apply one operation to an index, exactly: the result equals
    [Indexer.index_documents] over the updated document list, per-entry
    scores included.  Costs O(tokens of the documents it adds or removes),
    whatever the corpus size (see {!Inverted}).  [Add_doc] of an
    existing uri replaces it (the document moves to the end of the document
    list, as a remove-then-add would); [Remove_doc] of an unknown uri is a
    no-op.  Raises whatever parsing / indexing raises — callers replaying a
    log wrap failures (see {!replay}). *)

val fold_sources : (string * string) list -> op list -> (string * string) list
(** The document-set semantics of a log: the [(uri, source)] list that
    re-indexing from scratch after the operations would see.  Used by
    tests and tooling to cross-check exactness. *)

(** {1 Reading / recovery} *)

type log = {
  base_generation : int;  (** snapshot generation the log extends *)
  base_epoch : int;
      (** fencing epoch the log was written under (see {!Store}); headers
          predating the epoch field read as epoch 1 *)
  records : record list;  (** valid records, in append order *)
  truncated : bool;  (** a torn tail was dropped *)
  valid_bytes : int;  (** size of the valid prefix, including the header *)
}

val read_log : ?io:Store.Io.t -> dir:string -> unit -> log option
(** Read and verify the log in [dir].  [None] when there is no log (or an
    empty file).  A torn tail is dropped silently ([truncated] reports it).

    @raise Xquery.Errors.Error with [GTLX0010] on mid-log corruption (a
    complete record whose checksum fails, an unparseable record, or a
    sequence-number gap — an acknowledged record vanished),
    [GTLX0007] on a log format version mismatch, [FODC0002] when the log
    cannot be read at all.  Nothing else. *)

val replay :
  ?config:Tokenize.Segmenter.config -> Inverted.t -> record list -> Inverted.t
(** Fold {!apply} over replayed records; any failure inside an apply is
    surfaced as [GTLX0010] (the log is unreplayable). *)

val reset :
  ?io:Store.Io.t -> dir:string -> generation:int -> ?epoch:int -> unit -> unit
(** Atomically replace the log with an empty one whose base generation is
    [generation] (temp + fsync + rename, like every store file).  [epoch]
    stamps the header's fencing epoch; by default the directory's current
    manifest epoch carries over (1 when there is none).
    @raise Sys_error / [Unix.Unix_error] on I/O failure. *)

val seal :
  ?io:Store.Io.t ->
  dir:string ->
  generation:int ->
  epoch:int ->
  unit ->
  unit
(** Promotion-side log sealing: atomically rewrite the log with a header
    stamped [epoch], preserving every record byte-for-byte (temp + fsync +
    rename — a crash leaves the old timeline or the new one intact).  A
    missing or stale-generation log becomes a fresh empty one at [epoch].
    @raise Xquery.Errors.Error with [GTLX0013] when the log is already at
    a {e higher} epoch (the sealer is the stale party), as {!read_log} on
    a corrupt log, or [Sys_error] / [Unix.Unix_error] on I/O failure.
    @raise Store.Io.Crashed under injected crash faults. *)

(** {1 Appending} *)

type writer
(** An open log positioned at its valid end.  Single-writer: the serving
    layer serializes all appends through one writer. *)

val open_writer :
  ?io:Store.Io.t -> dir:string -> generation:int -> ?epoch:int -> unit -> writer
(** Open (or create) the log for appending on top of snapshot generation
    [generation].  An absent log, or a stale one (different base
    generation — left over from a compaction), is {!reset}.  A valid log
    with a torn tail is physically truncated to its valid prefix so
    subsequent appends extend a clean log.

    [epoch] is the opener's fencing epoch (default: the directory's
    current manifest epoch).  A log at a {e lower} epoch is {!seal}ed onto
    the opener's (promotion adopting the records); a log at a {e higher}
    epoch refuses with [GTLX0013] — an old primary must never append on a
    superseded timeline.
    @raise Xquery.Errors.Error as {!read_log} on a corrupt log (never
    resets one — the corruption must surface, not be destroyed), with
    [GTLX0013] on an epoch regression, and with [GTLX0008] when the
    reset / tail truncation itself fails.
    @raise Store.Io.Crashed under injected crash faults. *)

val append : writer -> op -> record
(** Frame, checksum, append and fsync one operation; returns the record
    with its assigned sequence number.  On an I/O failure the writer
    truncates the file back to its last known-good size (best effort), so
    a failed append never leaves garbage for the next one to bury.
    @raise Xquery.Errors.Error with [GTLX0008] when the append cannot be
    made durable.
    @raise Store.Io.Crashed under injected crash faults. *)

val writer_generation : writer -> int

val writer_epoch : writer -> int
(** The fencing epoch the writer's log header carries. *)

val wal_records : writer -> int
(** Operation records in the log (excluding the header). *)

val wal_bytes : writer -> int
(** Size in bytes of the valid log, including the header. *)

val next_seq : writer -> int

(** {1 Wire shipping (replication)}

    A primary ships acknowledged WAL records to followers re-using the
    on-disk framing byte for byte, so the follower verifies shipped bytes
    with the same checksumming scan that recovery uses. *)

val encode_records : record list -> string
(** Frame and checksum records exactly as {!append} writes them to disk
    (no header record): appending the result to a log whose last seq
    precedes the first shipped seq reproduces the primary's log bytes. *)

val decode_records : string -> record list
(** Verify and decode a {!encode_records} transfer.
    @raise Xquery.Errors.Error with [GTLX0010] on any checksum failure,
    unparseable record, or incomplete trailing frame — shipped bytes are
    never silently dropped (unlike a local torn tail). *)

val select_fresh : applied:int -> record list -> record list
(** The dense continuation [applied+1, applied+2, ...] extracted from
    shipped records that may contain duplicates: records with
    [seq <= applied] (or re-sent within the batch) are skipped, so
    applying the result after [applied] records converges to the in-order
    replay state no matter how deliveries were duplicated.
    @raise Xquery.Errors.Error with [GTLX0010] when the records skip ahead
    (a sequence gap): applying them would silently diverge from the
    acknowledged order. *)
