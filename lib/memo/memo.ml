(* Keyed, bounded, domain-safe artifact cache (DESIGN.md section 10).

   Each producer registers a typed space: a unique name, a fingerprint
   function for its key type, and its own hash table from fingerprints to
   values, so a lookup needs no cast and builds no string.  One mutex
   guards every table and counter.  It is held only for a lookup or an
   insert — never while a producer runs — so two domains racing on the
   same key may both compute; every cached producer is deterministic, so
   either result is correct and the second insert is dropped in favour of
   the first.

   The store is bounded by an entry count: an insert that finds
   [max_entries] values cached first empties every space. *)

(* Structural fingerprints for cache keys: FNV-1a over a 64-bit state.
   The fingerprint is a pure function of the bytes fed in, so two values
   with the same structural description collide exactly when their
   descriptions are byte-identical — which for the generators means equal
   (family, params, seed) and for derived artifacts equal (producer name,
   input fingerprints).  Not cryptographic; the cache tolerates an
   astronomically unlikely 64-bit collision the way a hash-consing
   compiler does, and the test suite pins distinct graphs to distinct
   keys. *)
module Fingerprint = struct
  type t = int64

  let empty = 0xcbf29ce484222325L
  let prime = 0x100000001b3L

  (* combinators take the value first and the state last so key builders
     read as pipelines: [empty |> string "grid" |> int w |> int h] *)
  let byte b h = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) prime

  let int64 x h =
    let h = ref h in
    for i = 0 to 7 do
      h := byte (Int64.to_int (Int64.shift_right_logical x (i * 8))) !h
    done;
    !h

  let int x h = int64 (Int64.of_int x) h
  let bool b h = byte (if b then 1 else 0) h

  let string s h =
    let h = ref (int (String.length s) h) in
    String.iter (fun c -> h := byte (Char.code c) !h) s;
    !h

  let ints a h =
    let h = ref (int (Array.length a) h) in
    Array.iter (fun x -> h := int x !h) a;
    !h

  let int_list l h =
    let h = ref (int (List.length l) h) in
    List.iter (fun x -> h := int x !h) l;
    !h
end

module Table = Hashtbl.Make (Int64)

type stats = { hits : int; misses : int; evictions : int; entries : int }

let max_entries = 4096
let mutex = Mutex.create ()
let entries = ref 0
let hits = ref 0
let misses = ref 0
let evictions = ref 0

(* per-domain obs counters: merged deterministically at pool join *)
let c_hits = Obs.Metrics.counter "memo.hits"
let c_misses = Obs.Metrics.counter "memo.misses"
let c_evictions = Obs.Metrics.counter "memo.evictions"

(* the global switch that --no-cache turns off *)
let enabled_flag = Atomic.make true
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

type ('k, 'v) t = { name : string; fp : 'k -> Fingerprint.t; table : 'v Table.t }

(* every space's name and the reset of its table, for [clear] *)
let spaces : (string * (unit -> unit)) list ref = ref []

let create ~name ~fp =
  let table = Table.create 16 in
  Mutex.lock mutex;
  let dup = List.mem_assoc name !spaces in
  if not dup then spaces := (name, fun () -> Table.reset table) :: !spaces;
  Mutex.unlock mutex;
  if dup then invalid_arg (Printf.sprintf "Memo.create: duplicate space %S" name);
  { name; fp; table }

(* under [mutex] *)
let reset_all () =
  List.iter (fun (_, reset) -> reset ()) !spaces;
  entries := 0

(* under [mutex]: add a new key, first emptying every space if the store
   is full; returns how many entries that dropped *)
let insert table key v =
  let dropped = if !entries >= max_entries then !entries else 0 in
  if dropped > 0 then begin
    evictions := !evictions + dropped;
    reset_all ()
  end;
  Table.add table key v;
  incr entries;
  dropped

let find_or_compute c k produce =
  if not (enabled ()) then produce ()
  else begin
    let key = c.fp k in
    Mutex.lock mutex;
    match Table.find_opt c.table key with
    | Some v ->
        incr hits;
        Mutex.unlock mutex;
        Obs.Metrics.incr c_hits;
        Obs.Span.set_attr "memo.hit" (Obs.Sink.String c.name);
        v
    | None ->
        incr misses;
        Mutex.unlock mutex;
        Obs.Metrics.incr c_misses;
        Obs.Span.set_attr "memo.miss" (Obs.Sink.String c.name);
        let v = produce () in
        Mutex.lock mutex;
        let dropped = if Table.mem c.table key then 0 else insert c.table key v in
        Mutex.unlock mutex;
        if dropped > 0 then Obs.Metrics.add c_evictions dropped;
        v
  end

let clear () = Mutex.protect mutex reset_all

let stats () =
  Mutex.protect mutex @@ fun () ->
  { hits = !hits; misses = !misses; evictions = !evictions; entries = !entries }

let stats_json () =
  let s = stats () in
  Obs.Sink.Obj
    [
      ("hits", Obs.Sink.Int s.hits);
      ("misses", Obs.Sink.Int s.misses);
      ("evictions", Obs.Sink.Int s.evictions);
      ("entries", Obs.Sink.Int s.entries);
    ]
