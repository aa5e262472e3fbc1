(* Off-line document preprocessing (Figure 4, upper left): tokenize each
   input document and build the in-memory inverted index.  Per-entry
   scores are not computed here: the index applies them when postings are
   read (see Inverted). *)

let tokenize ?config root =
  Array.of_list (Tokenize.Segmenter.tokenize_document ?config root)

let add_document ?config index ~uri root =
  Inverted.add_document index ~uri root (tokenize ?config root)

let index_documents ?config docs =
  Inverted.of_documents
    (List.map (fun (uri, root) -> (uri, root, tokenize ?config root)) docs)

let index_strings ?config docs =
  index_documents ?config
    (List.map (fun (uri, src) -> (uri, Xmlkit.Parser.parse_document ~uri src)) docs)
