(* The full-text evaluation environment: the inverted index plus the
   resources match options draw on (named thesauri, the default thesaurus)
   and a memo table for match-option word expansion, which otherwise scans
   the distinct-word list once per (token, options) pair — the paper's own
   technique (Section 3.2.3.2).

   One environment may serve many concurrent requests (the query daemon
   shares a single engine across its worker pool), so the memo table — the
   only mutable state here — is guarded by a mutex.  Expansion is
   deterministic, so losing a race just means computing the same list
   twice; what the lock prevents is concurrent Hashtbl mutation. *)

type t = {
  index : Ftindex.Inverted.t;
  thesauri : (string * Tokenize.Thesaurus.t) list;
  default_thesaurus : Tokenize.Thesaurus.t option;
  expansion_cache : (string, string list) Hashtbl.t;
      (** key: token + option signature -> matching distinct words *)
  cache_lock : Mutex.t;
}

let create ?(thesauri = []) ?default_thesaurus index =
  {
    index;
    thesauri;
    default_thesaurus;
    expansion_cache = Hashtbl.create 64;
    cache_lock = Mutex.create ();
  }

let index t = t.index

let find_thesaurus t = function
  | None -> t.default_thesaurus
  | Some name -> List.assoc_opt name t.thesauri

(* Entries are added per distinct (token, options, thesaurus terms) key, so
   a long-running read-only daemon would grow the table without limit from
   user query tokens.  When it is full it starts over: expansion is
   deterministic, so dropping entries only costs recomputation. *)
let expansion_cache_capacity = 4096

let locked t f =
  Mutex.lock t.cache_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.cache_lock) f

let cached t key compute =
  (* [Hashtbl.find_opt] on a string key cannot raise: no [Fun.protect] *)
  Mutex.lock t.cache_lock;
  let hit = Hashtbl.find_opt t.expansion_cache key in
  Mutex.unlock t.cache_lock;
  match hit with
  | Some v -> v
  | None ->
      (* compute outside the lock: expansions can scan the whole
         distinct-word list, and the result is deterministic *)
      let v = compute () in
      locked t (fun () ->
          if Hashtbl.length t.expansion_cache >= expansion_cache_capacity then
            Hashtbl.reset t.expansion_cache;
          Hashtbl.replace t.expansion_cache key v);
      v

let clear_cache t = locked t (fun () -> Hashtbl.reset t.expansion_cache)
