(* One inverted-list entry: a TokenInfo plus the document it came from and
   the per-entry probabilistic score of Section 3.3 ("the score of an entry
   represents the probability that the entry contains a given word",
   a float in (0,1], computed from tf/idf by {!Stats}).  The index stores
   no entries: {!Inverted} makes them when a word's postings are read, with
   the score of the corpus at that moment. *)

type t = { doc : string; token : Tokenize.Token.t; score : float }

let make ?(score = 1.0) ~doc token =
  if not (score > 0.0 && score <= 1.0) then
    invalid_arg "Posting.make: score must be in (0,1]";
  { doc; token; score }

let doc p = p.doc
let token p = p.token
let score p = p.score
let word p = p.token.Tokenize.Token.norm
let abs_pos p = p.token.Tokenize.Token.abs_pos
let node p = p.token.Tokenize.Token.node
let sentence p = p.token.Tokenize.Token.sentence
let para p = p.token.Tokenize.Token.para

let compare_pos a b =
  match compare a.doc b.doc with
  | 0 -> compare (abs_pos a) (abs_pos b)
  | c -> c

let pp ppf p =
  Fmt.pf ppf "%s:%a[%.3f]" p.doc Tokenize.Token.pp p.token p.score
