open Xmlkit

(* The corpus-level inverted index (Figure 4, upper left): for every distinct
   word, all of its positions across the indexed documents, plus the distinct
   word list that drives match-option expansion (Section 3.2.3.2).

   Everything is a persistent map, so an update builds a new index that
   shares all it did not touch with the old one, and a reader holding the
   old one keeps a consistent snapshot.  Documents are keyed by an indexing
   sequence number: maps over it iterate in indexing order, and a re-added
   uri takes a fresh number, moving it to the end.

   A word's postings are keyed by document; each (word, document) slice
   holds that document's positions of the word, in position order, and
   the document-local score factor.  Section 3.3's score also has a
   corpus-wide idf factor, which changes with every add or remove; it is
   applied when postings are read ({!scored}), which is what keeps
   updates O(document) instead of rescoring the corpus. *)

module SMap = Map.Make (String)
module IMap = Map.Make (Int)

type slice = {
  uri : string;
  positions : Tokenize.Token.t array;
  tf_part : float;  (** Stats.tf_part of (word, document) *)
}

type word_postings = slice IMap.t  (** indexing sequence -> slice *)

type doc = {
  root : Node.t;  (** sealed document root *)
  tokens : Tokenize.Token.t array;
      (** the full token stream, in position order; used for node
          word-extents, window/anchor checks and highlighting *)
  words : string list;  (** distinct words of the document *)
}

type t = {
  docs : (string * doc) IMap.t;  (** indexing sequence -> (uri, document) *)
  seq_of_uri : int SMap.t;
  uri_of_tree : string IMap.t;  (** root tree id -> uri *)
  postings : word_postings SMap.t;
  word_count : int;
  stats : Stats.t;
  total_postings : int;
  next_seq : int;
}

let empty () =
  {
    docs = IMap.empty;
    seq_of_uri = SMap.empty;
    uri_of_tree = IMap.empty;
    postings = SMap.empty;
    word_count = 0;
    stats = Stats.create ();
    total_postings = 0;
    next_seq = 0;
  }

let stats t = t.stats
let total_postings t = t.total_postings
let distinct_word_count t = t.word_count

let documents t =
  IMap.fold (fun _ (uri, d) acc -> (uri, d.root) :: acc) t.docs []
  |> List.rev

let find_doc t uri =
  Option.map (fun seq -> snd (IMap.find seq t.docs)) (SMap.find_opt uri t.seq_of_uri)

let document_root t uri = Option.map (fun d -> d.root) (find_doc t uri)

let tokens_of_doc t ~doc =
  match find_doc t doc with Some d -> d.tokens | None -> [||]

let add_document t ~uri root tokens =
  if SMap.mem uri t.seq_of_uri then
    invalid_arg ("Inverted.add_document: duplicate document uri " ^ uri);
  let seq = t.next_seq in
  let stats = Stats.add_document t.stats ~doc:uri tokens in
  (* group positions by word; reversed, tokens arrive in position order *)
  let by_word = Hashtbl.create 256 in
  Array.iter
    (fun (tok : Tokenize.Token.t) ->
      let w = tok.Tokenize.Token.norm in
      Hashtbl.replace by_word w
        (tok :: Option.value ~default:[] (Hashtbl.find_opt by_word w)))
    tokens;
  let postings, word_count, words =
    Hashtbl.fold
      (fun w rev_positions (postings, n, words) ->
        let slice =
          {
            uri;
            positions = Array.of_list (List.rev rev_positions);
            tf_part = Stats.tf_part stats ~doc:uri w;
          }
        in
        match SMap.find_opt w postings with
        | None -> (SMap.add w (IMap.singleton seq slice) postings, n + 1, w :: words)
        | Some wp -> (SMap.add w (IMap.add seq slice wp) postings, n, w :: words))
      by_word
      (t.postings, t.word_count, [])
  in
  {
    docs = IMap.add seq (uri, { root; tokens; words }) t.docs;
    seq_of_uri = SMap.add uri seq t.seq_of_uri;
    uri_of_tree = IMap.add (Node.tree_id root) uri t.uri_of_tree;
    postings;
    word_count;
    stats;
    total_postings = t.total_postings + Array.length tokens;
    next_seq = seq + 1;
  }

let of_documents docs =
  List.fold_left
    (fun t (uri, root, tokens) -> add_document t ~uri root tokens)
    (empty ()) docs

(* Exact postings reclamation: only the document's own words are touched;
   a word left without documents leaves the distinct-word list, and corpus
   statistics forget the document — so the result is an index that never
   contained it. *)
let remove_document t ~uri =
  match SMap.find_opt uri t.seq_of_uri with
  | None -> t
  | Some seq ->
      let _, d = IMap.find seq t.docs in
      let postings, word_count =
        List.fold_left
          (fun (postings, n) w ->
            let wp = IMap.remove seq (SMap.find w postings) in
            if IMap.is_empty wp then (SMap.remove w postings, n - 1)
            else (SMap.add w wp postings, n))
          (t.postings, t.word_count) d.words
      in
      {
        docs = IMap.remove seq t.docs;
        seq_of_uri = SMap.remove uri t.seq_of_uri;
        uri_of_tree = IMap.remove (Node.tree_id d.root) t.uri_of_tree;
        postings;
        word_count;
        stats = Stats.remove_document t.stats ~doc:uri;
        total_postings = t.total_postings - Array.length d.tokens;
        next_seq = t.next_seq;
      }

let word_postings t word =
  SMap.find_opt (Tokenize.Normalize.casefold word) t.postings

(* A slice's entries, prepended to [tail], scored against the current
   corpus: the stored document-local factor times the word's idf. *)
let scored ~idf s tail =
  let score = Stats.entry_score ~tf_part:s.tf_part ~idf in
  Array.fold_right
    (fun tok acc -> Posting.make ~score ~doc:s.uri tok :: acc)
    s.positions tail

let postings_of_word t w wp =
  let idf = Stats.idf_norm t.stats w in
  Seq.fold_left (fun acc (_, s) -> scored ~idf s acc) [] (IMap.to_rev_seq wp)

let postings t word =
  let w = Tokenize.Normalize.casefold word in
  match SMap.find_opt w t.postings with
  | Some wp -> postings_of_word t w wp
  | None -> []

let postings_of_doc t ~doc word =
  let w = Tokenize.Normalize.casefold word in
  match (SMap.find_opt w t.postings, SMap.find_opt doc t.seq_of_uri) with
  | Some wp, Some seq -> (
      match IMap.find_opt seq wp with
      | Some s -> scored ~idf:(Stats.idf_norm t.stats w) s []
      | None -> [])
  | _ -> []

let distinct_words t = SMap.fold (fun w _ acc -> w :: acc) t.postings [] |> List.rev

(* containsPos (Section 3.2.1): a position is inside a context node when the
   position's Dewey label is contained in the node's and they belong to the
   same document. *)
let position_in_node t posting ~doc ~node_dewey =
  ignore t;
  Posting.doc posting = doc && Dewey.contains node_dewey (Posting.node posting)

let postings_in t ~doc ~node_dewey word =
  List.filter
    (fun p -> Dewey.contains node_dewey (Posting.node p))
    (postings_of_doc t ~doc word)

(* Every node of a sealed tree carries the tree's id, and the index maps
   each document root's id to its uri. *)
let doc_of_node t node = IMap.find_opt (Node.tree_id node) t.uri_of_tree

(* The word-position extent of a node: positions of a node's tokens are
   contiguous (pre-order Dewey containment), so the extent is the (first,
   last) absolute position of tokens whose Dewey label the node contains.
   None when the node contains no tokens. *)
let node_extent t ~doc ~node_dewey =
  let tokens = tokens_of_doc t ~doc in
  let n = Array.length tokens in
  let contained i =
    Dewey.contains node_dewey tokens.(i).Tokenize.Token.node
  in
  (* binary search for the first contained token: containment over a
     pre-order position array is a contiguous run, and tokens before the run
     have Dewey labels ordered before the node *)
  let rec first lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Dewey.compare tokens.(mid).Tokenize.Token.node node_dewey < 0 then
        first (mid + 1) hi
      else first lo mid
  in
  let start = first 0 n in
  if start >= n || not (contained start) then None
  else begin
    let stop = ref start in
    while !stop + 1 < n && contained (!stop + 1) do
      incr stop
    done;
    Some
      ( tokens.(start).Tokenize.Token.abs_pos,
        tokens.(!stop).Tokenize.Token.abs_pos )
  end
