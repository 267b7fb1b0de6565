(* Keyed, bounded, domain-safe artifact cache (DESIGN.md section 10).

   One process-global store holds every cached artifact behind a single
   mutex: a hash table from string keys ("space:fingerprint") to entries
   threaded on an intrusive LRU list, with a byte budget estimated by
   [Obj.reachable_words] at insert time.  Producers register a typed
   [space] (a unique name plus a fingerprint function for their key type)
   and wrap their construction in [find_or_compute].

   The lock is held only for table lookups and list splices — never while
   a producer runs — so two domains racing on the same key may both
   compute; every cached producer is deterministic, so either result is
   correct and the second insert is dropped in favour of the first.

   Typed retrieval uses [Obj]: a space's values are stored as [Obj.t] and
   recovered with [Obj.obj].  This is sound because [create] enforces
   globally unique space names, so one space maps to exactly one value
   type for the lifetime of the process. *)

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

  let to_hex = Printf.sprintf "%016Lx"
end

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  bytes : int;
  capacity_bytes : int;
}

type entry = {
  key : string;
  value : Obj.t;
  bytes : int;
  mutable prev : entry option; (* toward MRU *)
  mutable next : entry option; (* toward LRU *)
}

let mutex = Mutex.create ()
let table : (string, entry) Hashtbl.t = Hashtbl.create 512
let mru : entry option ref = ref None
let lru : entry option ref = ref None
let total_bytes = ref 0
let capacity = ref (256 * 1024 * 1024)
let hits = ref 0
let misses = ref 0
let evictions = ref 0

(* per-domain obs counters: merged deterministically at pool join *)
let c_hits = Obs.Metrics.counter "memo.hits"
let c_misses = Obs.Metrics.counter "memo.misses"
let c_evictions = Obs.Metrics.counter "memo.evictions"

(* -- enablement: a global switch (--no-cache) plus a per-domain disable
   depth (with_disabled), so a timing harness can opt out locally without
   affecting concurrent domains -- *)

let enabled_flag = Atomic.make true
let disable_depth = Domain.DLS.new_key (fun () -> 0)
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag && Domain.DLS.get disable_depth = 0

let with_disabled f =
  let d = Domain.DLS.get disable_depth in
  Domain.DLS.set disable_depth (d + 1);
  Fun.protect ~finally:(fun () -> Domain.DLS.set disable_depth d) f

(* -- LRU list splicing; all under [mutex] -- *)

let unlink e =
  (match e.prev with Some p -> p.next <- e.next | None -> mru := e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> lru := e.prev);
  e.prev <- None;
  e.next <- None

let push_front e =
  e.prev <- None;
  e.next <- !mru;
  (match !mru with Some h -> h.prev <- Some e | None -> lru := Some e);
  mru := Some e

let touch e =
  match !mru with
  | Some h when h == e -> ()
  | _ ->
      unlink e;
      push_front e

let evict_over_budget () =
  while !total_bytes > !capacity && !lru <> None do
    match !lru with
    | None -> ()
    | Some e ->
        unlink e;
        Hashtbl.remove table e.key;
        total_bytes := !total_bytes - e.bytes;
        incr evictions;
        Obs.Metrics.incr c_evictions
  done

(* -- typed spaces -- *)

type ('k, 'v) t = {
  space : string;
  fp : 'k -> Fingerprint.t;
  (* extra bytes per value that [Obj.reachable_words] cannot see — Bigarray
     payloads live outside the OCaml heap, so without this hint CSR graphs
     would enter the cache at a few hundred estimated bytes and bypass the
     byte budget entirely *)
  bytes_hint : ('v -> int) option;
}

let spaces : (string, unit) Hashtbl.t = Hashtbl.create 64

let create ~name ~fp =
  Mutex.lock mutex;
  let dup = Hashtbl.mem spaces name in
  if not dup then Hashtbl.add spaces name ();
  Mutex.unlock mutex;
  if dup then invalid_arg (Printf.sprintf "Memo.create: duplicate space %S" name);
  { space = name; fp; bytes_hint = None }

let with_bytes_hint hint c = { c with bytes_hint = Some hint }

let key_of c k = c.space ^ ":" ^ Fingerprint.to_hex (c.fp k)

let find_or_compute (type v) (c : (_, v) t) k (produce : unit -> v) : v =
  if not (enabled ()) then produce ()
  else begin
    let key = key_of c k in
    Mutex.lock mutex;
    match Hashtbl.find_opt table key with
    | Some e ->
        touch e;
        incr hits;
        Mutex.unlock mutex;
        Obs.Metrics.incr c_hits;
        Obs.Span.set_attr "memo.hit" (Obs.Sink.String c.space);
        (Obj.obj e.value : v)
    | None ->
        incr misses;
        Mutex.unlock mutex;
        Obs.Metrics.incr c_misses;
        Obs.Span.set_attr "memo.miss" (Obs.Sink.String c.space);
        let v = produce () in
        let bytes =
          (Obj.reachable_words (Obj.repr v) * 8)
          + (match c.bytes_hint with Some f -> f v | None -> 0)
        in
        Mutex.lock mutex;
        (if (not (Hashtbl.mem table key)) && bytes <= !capacity then begin
           let e = { key; value = Obj.repr v; bytes; prev = None; next = None } in
           Hashtbl.add table key e;
           push_front e;
           total_bytes := !total_bytes + bytes;
           evict_over_budget ()
         end);
        Mutex.unlock mutex;
        v
  end

(* -- maintenance / introspection -- *)

let clear () =
  Mutex.lock mutex;
  Hashtbl.reset table;
  mru := None;
  lru := None;
  total_bytes := 0;
  Mutex.unlock mutex

let set_capacity_bytes n =
  if n < 0 then invalid_arg "Memo.set_capacity_bytes";
  Mutex.lock mutex;
  capacity := n;
  evict_over_budget ();
  Mutex.unlock mutex

let stats () =
  Mutex.lock mutex;
  let s =
    {
      hits = !hits;
      misses = !misses;
      evictions = !evictions;
      entries = Hashtbl.length table;
      bytes = !total_bytes;
      capacity_bytes = !capacity;
    }
  in
  Mutex.unlock mutex;
  s

let stats_json () =
  let s = stats () in
  Obs.Sink.Obj
    [
      ("hits", Obs.Sink.Int s.hits);
      ("misses", Obs.Sink.Int s.misses);
      ("evictions", Obs.Sink.Int s.evictions);
      ("entries", Obs.Sink.Int s.entries);
      ("bytes", Obs.Sink.Int s.bytes);
      ("capacity_bytes", Obs.Sink.Int s.capacity_bytes);
    ]

let hit_rate s =
  let looked = s.hits + s.misses in
  if looked = 0 then 0.0 else float_of_int s.hits /. float_of_int looked
