(* Per-strategy circuit breakers (see breaker.mli for the state machine). *)

type state = Closed | Open of int | Half_open

type entry = {
  mutable state : state;
  mutable consecutive : int;  (* consecutive failures while closed *)
  mutable probing : bool;  (* a half-open probe is in flight *)
  mutable trips : int;
}

type t = {
  threshold : int;
  cooldown : int;
  lock : Mutex.t;
  entries : (string, entry) Hashtbl.t;
}

let create ~threshold ~cooldown =
  {
    threshold = max 1 threshold;
    cooldown = max 1 cooldown;
    lock = Mutex.create ();
    entries = Hashtbl.create 4;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let entry t key =
  match Hashtbl.find_opt t.entries key with
  | Some e -> e
  | None ->
      let e = { state = Closed; consecutive = 0; probing = false; trips = 0 } in
      Hashtbl.replace t.entries key e;
      e

type decision = Run | Probe | Bypass

let route t key =
  locked t (fun () ->
      let e = entry t key in
      match e.state with
      | Closed -> Run
      | Open n ->
          let n = n - 1 in
          e.state <- (if n <= 0 then Half_open else Open n);
          Bypass
      | Half_open ->
          if e.probing then Bypass
          else begin
            e.probing <- true;
            Probe
          end)

let record t key ~ok =
  locked t (fun () ->
      let e = entry t key in
      match e.state with
      | Half_open ->
          e.probing <- false;
          if ok then begin
            e.state <- Closed;
            e.consecutive <- 0
          end
          else begin
            e.state <- Open t.cooldown;
            e.trips <- e.trips + 1
          end
      | Closed ->
          if ok then e.consecutive <- 0
          else begin
            e.consecutive <- e.consecutive + 1;
            if e.consecutive >= t.threshold then begin
              e.state <- Open t.cooldown;
              e.trips <- e.trips + 1;
              e.consecutive <- 0
            end
          end
      | Open _ ->
          (* a late outcome from a request routed before the trip: the
             open state already distrusts the strategy; ignore *)
          ())

type snapshot = {
  strategy : string;
  state : string;
  consecutive : int;
  cooldown : int;
  trips : int;
}

let snapshots t =
  locked t (fun () ->
      Hashtbl.fold
        (fun strategy (e : entry) acc ->
          let state, cooldown =
            match e.state with
            | Closed -> ("closed", 0)
            | Open n -> ("open", n)
            | Half_open -> ("half-open", 0)
          in
          { strategy; state; consecutive = e.consecutive; cooldown;
            trips = e.trips }
          :: acc)
        t.entries []
      |> List.sort compare)

let to_protocol t =
  List.map
    (fun s ->
      {
        Protocol.b_strategy = s.strategy;
        b_state = s.state;
        b_consecutive = s.consecutive;
        b_cooldown = s.cooldown;
        b_trips = s.trips;
      })
    (snapshots t)

let trips_total t =
  locked t (fun () ->
      Hashtbl.fold (fun _ (e : entry) acc -> acc + e.trips) t.entries 0)
