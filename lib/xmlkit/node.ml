(* In-memory XML tree.  Trees are built bottom-up (children before parents)
   and then [seal]ed, which sets parent links and assigns, in one pre-order
   pass: a tree identifier, pre-order positions (document order), and Dewey
   labels.  XQuery element constructors build fresh trees, so every node
   belongs to exactly one sealed tree and node comparison is (tree, order). *)

type t = {
  mutable parent : t option;
  mutable tree_id : int;
  mutable order : int;
  mutable dewey : Dewey.t;
  kind : kind;
}

and kind =
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

(* Atomic: documents are parsed and sealed on several threads at once (a
   query constructing a tree while an update parses its XML), and the
   index resolves a node's document by its tree id, so two trees must
   never draw the same id. *)
let next_tree_id = Atomic.make 0

let unsealed kind =
  { parent = None; tree_id = -1; order = -1; dewey = Dewey.root; kind }

let document ?uri children = unsealed (Document { uri; dchildren = children })

let element ?(attributes = []) name children =
  unsealed (Element { name; attributes; children })

let attribute aname avalue = unsealed (Attribute { aname; avalue })
let text content = unsealed (Text { content })
let comment c = unsealed (Comment c)
let pi target pcontent = unsealed (Pi { target; pcontent })

let kind n = n.kind

let children n =
  match n.kind with
  | Document d -> d.dchildren
  | Element e -> e.children
  | Attribute _ | Text _ | Comment _ | Pi _ -> []

let attributes n = match n.kind with Element e -> e.attributes | _ -> []
let parent n = n.parent

let name n =
  match n.kind with
  | Element e -> Some e.name
  | Attribute a -> Some a.aname
  | Pi p -> Some p.target
  | Document _ | Text _ | Comment _ -> None

let seal root =
  let tree_id = 1 + Atomic.fetch_and_add next_tree_id 1 in
  let counter = ref 0 in
  let stamp node parent dewey =
    node.parent <- parent;
    node.tree_id <- tree_id;
    node.order <- !counter;
    incr counter;
    node.dewey <- dewey
  in
  let rec walk node parent dewey =
    stamp node parent dewey;
    (* Attributes share their element's Dewey label: the paper's TokenInfo
       identifiers only label tree nodes, and attribute text is not indexed. *)
    List.iter (fun attr -> stamp attr (Some node) dewey) (attributes node);
    List.iteri
      (fun i child -> walk child (Some node) (Dewey.child dewey (i + 1)))
      (children node)
  in
  (match root.kind with
  | Document _ ->
      (* The document node and its root element both carry label "1", as in
         the paper's Figure 5(a) where the outermost element is "1". *)
      stamp root None Dewey.root;
      List.iter (fun c -> walk c (Some root) Dewey.root) (children root)
  | _ -> walk root None Dewey.root);
  root

let is_sealed n = n.tree_id >= 0

let compare_order a b =
  if a.tree_id <> b.tree_id then compare a.tree_id b.tree_id
  else compare a.order b.order

let equal a b = a == b
let tree_id n = n.tree_id
let dewey n = n.dewey

let rec string_value n =
  match n.kind with
  | Text t -> t.content
  | Attribute a -> a.avalue
  | Comment c -> c
  | Pi p -> p.pcontent
  | Document _ | Element _ ->
      (* XDM: the string value of an element is the concatenation of its
         descendant *text* nodes; comments and PIs do not contribute *)
      String.concat ""
        (List.filter_map
           (fun c ->
             match c.kind with
             | Text _ | Element _ | Document _ -> Some (string_value c)
             | Attribute _ | Comment _ | Pi _ -> None)
           (children n))

let rec root n = match n.parent with None -> n | Some p -> root p

let rec descendants_or_self n =
  n :: List.concat_map descendants_or_self (children n)

let descendants n = List.concat_map descendants_or_self (children n)

let rec find_by_dewey n d =
  if Dewey.equal (dewey n) d && not (is_attribute n) then
    match n.kind with
    | Document _ ->
        (* prefer the element sharing label "1" over the document node *)
        let among_children =
          List.find_opt (fun c -> Dewey.equal (dewey c) d) (children n)
        in
        (match among_children with Some c -> Some c | None -> Some n)
    | _ -> Some n
  else
    List.fold_left
      (fun acc c ->
        match acc with
        | Some _ -> acc
        | None -> if Dewey.contains (dewey c) d then find_by_dewey c d else None)
      None (children n)

and is_attribute n = match n.kind with Attribute _ -> true | _ -> false

let is_element n = match n.kind with Element _ -> true | _ -> false
let is_text n = match n.kind with Text _ -> true | _ -> false
let is_document n = match n.kind with Document _ -> true | _ -> false

let attribute_value n aname =
  List.fold_left
    (fun acc a ->
      match (acc, a.kind) with
      | Some _, _ -> acc
      | None, Attribute at when at.aname = aname -> Some at.avalue
      | None, _ -> None)
    None (attributes n)

let kind_name n =
  match n.kind with
  | Document _ -> "document"
  | Element _ -> "element"
  | Attribute _ -> "attribute"
  | Text _ -> "text"
  | Comment _ -> "comment"
  | Pi _ -> "processing-instruction"
