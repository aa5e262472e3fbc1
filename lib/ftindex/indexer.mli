(** Off-line document preprocessing: build the inverted index. *)

val add_document :
  ?config:Tokenize.Segmenter.config ->
  Inverted.t ->
  uri:string ->
  Xmlkit.Node.t ->
  Inverted.t
(** Tokenize one sealed document and append it to the index.  Costs
    O(tokens of the document), whatever the corpus size; the result equals
    indexing the whole corpus from scratch, scores included (they are
    computed when postings are read, see {!Inverted}).
    @raise Invalid_argument on duplicate uri. *)

val index_documents :
  ?config:Tokenize.Segmenter.config ->
  (string * Xmlkit.Node.t) list ->
  Inverted.t
(** Index a corpus in one pass: linear in its token count.
    @raise Invalid_argument on duplicate uri. *)

val index_strings :
  ?config:Tokenize.Segmenter.config -> (string * string) list -> Inverted.t
(** Convenience: parse then index XML source strings. *)
