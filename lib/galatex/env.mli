(** The full-text evaluation environment: the index plus match-option
    resources (thesauri) and the expansion memo table. *)

type t = {
  index : Ftindex.Inverted.t;
  thesauri : (string * Tokenize.Thesaurus.t) list;
  default_thesaurus : Tokenize.Thesaurus.t option;
  expansion_cache : (string, string list) Hashtbl.t;
  cache_lock : Mutex.t;
      (** guards [expansion_cache]: one environment serves many concurrent
          requests in the query daemon *)
}

val create :
  ?thesauri:(string * Tokenize.Thesaurus.t) list ->
  ?default_thesaurus:Tokenize.Thesaurus.t ->
  Ftindex.Inverted.t ->
  t

val index : t -> Ftindex.Inverted.t

val find_thesaurus : t -> string option -> Tokenize.Thesaurus.t option
(** [None] selects the default thesaurus; [Some name] a registered one. *)

val expansion_cache_capacity : int
(** The most entries [expansion_cache] ever holds: a miss on a full table
    empties it before inserting. *)

val cached : t -> string -> (unit -> string list) -> string list
(** Memoized word-expansion lookup keyed by token + option signature,
    bounded by {!expansion_cache_capacity}.
    Thread-safe: the memo table is mutex-guarded and [compute] (which is
    deterministic) runs outside the lock. *)

val clear_cache : t -> unit
