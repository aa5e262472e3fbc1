(** Corpus tf/idf statistics backing the per-entry probabilistic scores of
    paper Section 3.3.

    Persistent: {!add_document} and {!remove_document} return a new value
    sharing everything they did not touch, and cost O(log) per distinct
    word of the document — never O(corpus). *)

type t

val create : unit -> t

val add_document : t -> doc:string -> Tokenize.Token.t array -> t
(** Record one document's token stream.
    @raise Invalid_argument on a duplicate document name. *)

val remove_document : t -> doc:string -> t
(** Forget one document exactly: document frequencies decremented (entries
    dropped at zero), its term frequencies and per-document stats removed —
    the result equals statistics built without the document.  No-op for an
    unknown document. *)

val doc_count : t -> int
val document_frequency : t -> string -> int
val term_frequency : t -> doc:string -> string -> int
val doc_token_count : t -> doc:string -> int

val idf_norm : t -> string -> float
(** Normalized inverse document frequency in (0,1]; the only corpus-wide
    factor of a score. *)

val tf_part : t -> doc:string -> string -> float
(** The document-local factor of a score, [0.5 + 0.5 * tf / max_tf] in
    (0.5,1]; it changes only when its own document does.  1.0 for unknown
    documents/words. *)

val entry_score : tf_part:float -> idf:float -> float
(** A per-entry score in (0,1]: bounded tf.idf, monotone in term frequency
    and rarity — the product of the two factors above, clamped. *)
