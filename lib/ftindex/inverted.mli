(** Corpus-level inverted index: word -> positions (TokenInfo) across all
    indexed documents, plus the distinct-word list used by match-option
    expansion.

    {b Representation.}  The index is a persistent value.  A word's
    postings are a map from document (in indexing order) to that
    document's positions of the word, stored with the document-local
    factor of their score; the corpus-wide idf factor is applied when the
    postings are read ({!Stats}), so the entries {!postings} returns carry
    exactly the scores a from-scratch build over the same documents would.

    {b Cost.}  {!add_document} and {!remove_document} cost
    O(n log V) for a document of n tokens over a V-word vocabulary — never
    O(corpus) — and share every untouched word's postings with their
    input.  Readers holding the old value keep a consistent snapshot. *)

type t

val empty : unit -> t

val of_documents :
  (string * Xmlkit.Node.t * Tokenize.Token.t array) list -> t
(** Build an index from [(uri, sealed root, token stream)] triples in
    indexing order — the one constructor behind bulk indexing and snapshot
    loading.  Linear in the corpus (up to the log factor above).
    @raise Invalid_argument on a duplicate uri. *)

val add_document :
  t -> uri:string -> Xmlkit.Node.t -> Tokenize.Token.t array -> t
(** Append one document (sealed root plus its token stream in position
    order) at the end of the indexing order.
    @raise Invalid_argument on a duplicate uri. *)

val remove_document : t -> uri:string -> t
(** Remove one document with exact postings reclamation: its entries leave
    every posting list, words with no remaining postings leave the
    distinct-word list, its token stream and statistics are forgotten.  The
    result equals an index built without the document, scores included.
    No-op for an unknown uri. *)

val documents : t -> (string * Xmlkit.Node.t) list
(** Indexed documents in indexing order. *)

val stats : t -> Stats.t

val total_postings : t -> int
(** Total number of tokens indexed (corpus word count). *)

val document_root : t -> string -> Xmlkit.Node.t option

val postings : t -> string -> Posting.t list
(** All positions of a word (case-folded before lookup), in (indexing
    order of the document, absolute position) order, scored against the
    current corpus. *)

val postings_of_doc : t -> doc:string -> string -> Posting.t list
(** The positions of a word inside one document, in position order —
    without touching other documents' postings. *)

type word_postings
(** One word's stored postings.  Adding or removing a document that does
    not contain the word returns an index holding the physically same
    value. *)

val word_postings : t -> string -> word_postings option

val distinct_words : t -> string list
(** Sorted distinct-word list ("list_distinct_words.xml" in the paper). *)

val distinct_word_count : t -> int

val position_in_node :
  t -> Posting.t -> doc:string -> node_dewey:Xmlkit.Dewey.t -> bool
(** The paper's [containsPos]: Dewey containment within one document. *)

val postings_in :
  t -> doc:string -> node_dewey:Xmlkit.Dewey.t -> string -> Posting.t list
(** The paper's [getPositions]: positions of a word inside one context
    node. *)

val doc_of_node : t -> Xmlkit.Node.t -> string option
(** Recover the indexed document a node belongs to, in O(log documents),
    by the tree id of its sealed tree. *)

val tokens_of_doc : t -> doc:string -> Tokenize.Token.t array
(** The full token stream of one document in position order. *)

val node_extent :
  t -> doc:string -> node_dewey:Xmlkit.Dewey.t -> (int * int) option
(** First and last absolute word position inside a node ([None] when the
    node contains no words).  Token positions of a node are contiguous. *)
