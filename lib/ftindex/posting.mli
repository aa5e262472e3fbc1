(** Inverted-list entries: TokenInfo + source document + per-entry score. *)

type t

val make : ?score:float -> doc:string -> Tokenize.Token.t -> t
(** @raise Invalid_argument unless [score] is in (0,1] (default 1.0). *)

val doc : t -> string
(** Uri of the document the entry belongs to. *)

val token : t -> Tokenize.Token.t

val score : t -> float
(** The entry's probabilistic score in (0,1] (paper Section 3.3). *)

val word : t -> string
(** Case-folded word, the index key. *)

val abs_pos : t -> int
val node : t -> Xmlkit.Dewey.t
val sentence : t -> int
val para : t -> int

val compare_pos : t -> t -> int
(** Order by (document, absolute position). *)

val pp : t Fmt.t
