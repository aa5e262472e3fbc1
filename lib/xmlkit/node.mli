(** In-memory XML node tree (the XQuery data model's node part).

    Trees are constructed bottom-up with the builder functions, then {!seal}
    assigns parent links, document order and Dewey labels in one pre-order
    pass.  All navigation functions assume a sealed tree. *)

type t

type kind =
  | Document of { uri : string option; mutable dchildren : t list }
  | Element of {
      name : string;
      mutable attributes : t list;
      mutable children : t list;
    }
  | Attribute of { aname : string; avalue : string }
  | Text of { mutable content : string }
  | Comment of string
  | Pi of { target : string; pcontent : string }

(** {1 Construction} *)

val document : ?uri:string -> t list -> t
val element : ?attributes:t list -> string -> t list -> t
val attribute : string -> string -> t
val text : string -> t
val comment : string -> t
val pi : string -> string -> t

val seal : t -> t
(** Stamp the tree rooted here with a fresh tree id, pre-order positions and
    Dewey labels.  Returns its argument.  A document node and its root
    element share the Dewey label "1" (paper, Figure 5(a)). *)

val is_sealed : t -> bool

(** {1 Structure} *)

val kind : t -> kind
val children : t -> t list
val attributes : t -> t list
val parent : t -> t option

val name : t -> string option
(** Element/attribute name or PI target. *)

val root : t -> t
val descendants : t -> t list
val descendants_or_self : t -> t list
val attribute_value : t -> string -> string option

(** {1 Identity and order} *)

val compare_order : t -> t -> int
(** Document order; nodes of distinct trees are ordered by tree id. *)

val equal : t -> t -> bool
(** Physical node identity. *)

val tree_id : t -> int
(** The id {!seal} stamped on every node of this node's tree: unique per
    sealed tree across all threads; negative for an unsealed node. *)

val dewey : t -> Dewey.t

val find_by_dewey : t -> Dewey.t -> t option
(** Locate the (non-attribute) node carrying a Dewey label, preferring the
    root element over the document node for label "1". *)

(** {1 Values and predicates} *)

val string_value : t -> string
(** Concatenation of descendant text (attribute value / comment text for
    those node kinds), per the XQuery data model. *)

val is_element : t -> bool
val is_text : t -> bool
val is_document : t -> bool
val is_attribute : t -> bool
val kind_name : t -> string
