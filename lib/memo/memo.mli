(** Keyed, bounded, domain-safe artifact cache (DESIGN.md section 10).

    Deterministic producers that some workload calls twice with one key —
    generators, BFS trees, Steiner forests, shortcut constructions —
    register a typed cache space and wrap their computation:

    {[
      let space =
        Memo.create ~name:"gen.grid" ~fp:(fun (w, h) ->
            Fingerprint.(empty |> int w |> int h))

      let grid w h = Memo.find_or_compute space (w, h) (fun () -> build w h)
    ]}

    Keys are structural {!Fingerprint}s — [family/params/seed] for
    generated graphs, input fingerprints plus the construction name for
    derived artifacts — so equal descriptions fetch instead of recompute.

    The store is process-global and bounded: a byte budget (default
    256 MiB, estimated with [Obj.reachable_words] at insert) is enforced
    by LRU eviction.  All bookkeeping runs under one mutex held only for
    table/list updates, never during a producer; racing domains may both
    compute a key, and the loser's insert is dropped — sound because every
    cached producer is deterministic.

    Contract for producers: cached values are shared between callers, so
    a memoized producer must return a value that no caller mutates.

    Hits, misses and evictions are counted both here ({!stats}) and in
    [Obs.Metrics] ([memo.hits]/[memo.misses]/[memo.evictions]); each hit
    or miss also tags the innermost open span with a [memo.hit] /
    [memo.miss] attribute naming the space. *)

(** FNV-1a structural fingerprints used as cache keys.  Build one by
    folding the structural description of a value through the
    combinators, starting from {!Fingerprint.empty}:

    {[
      Memo.Fingerprint.(empty |> string "grid" |> int w |> int h)
    ]}

    Every combinator mixes a length or tag, so concatenation ambiguities
    hash differently. *)
module Fingerprint : sig
  type t = int64

  val empty : t
  val int : int -> t -> t
  val int64 : int64 -> t -> t
  val bool : bool -> t -> t
  val string : string -> t -> t
  val ints : int array -> t -> t
  val int_list : int list -> t -> t

  val to_hex : t -> string
  (** 16 lowercase hex digits. *)
end

type ('k, 'v) t
(** A typed cache space: one producer, one key type, one value type. *)

val create : name:string -> fp:('k -> Fingerprint.t) -> ('k, 'v) t
(** Register a space.  [name] must be globally unique (it namespaces the
    fingerprints and types the stored values); reusing a name raises
    [Invalid_argument]. *)

val with_bytes_hint : ('v -> int) -> ('k, 'v) t -> ('k, 'v) t
(** [space |> with_bytes_hint f] makes inserts account [f v] extra bytes
    per value on top of the [Obj.reachable_words] estimate — for bytes
    that live outside the OCaml heap and are invisible to the GC walk:
    Bigarray payloads, i.e. [Graph.heap_bytes] for spaces caching CSR
    graphs.  Without the hint such values enter the cache at a few
    hundred estimated bytes and bypass the byte budget entirely.
    Overcounting payload shared with another entry is sound (it only
    evicts earlier); undercounting would let the cache exceed its
    bound. *)

val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [find_or_compute space k produce] returns the cached value for [k] or
    runs [produce] and caches the result.  With caching disabled it is
    exactly [produce ()]. *)

(** {1 Enablement} *)

val set_enabled : bool -> unit
(** Global switch; [--no-cache] sets it to [false] before any work runs. *)

val enabled : unit -> bool

val with_disabled : (unit -> 'a) -> 'a
(** Run [f] with caching off for the calling domain only — used by the
    bechamel timing suite so measured constructions really construct. *)

(** {1 Budget and maintenance} *)

val set_capacity_bytes : int -> unit
(** Change the byte budget and evict down to it immediately. *)

val clear : unit -> unit
(** Drop every cached value (counters keep accumulating). *)

(** {1 Introspection} *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  bytes : int;
  capacity_bytes : int;
}

val stats : unit -> stats
val stats_json : unit -> Obs.Sink.json
val hit_rate : stats -> float
(** Hits over lookups, 0.0 before the first lookup. *)
