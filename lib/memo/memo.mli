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
    Each space keeps its own table from fingerprints to values.

    The store is process-global and bounded by {!max_entries} values
    across all spaces.  One mutex guards the tables and counters, held
    for a lookup or an insert and never during a producer; racing domains
    may both compute a key, and the second insert is dropped — sound
    because every cached producer is deterministic.

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
end

type ('k, 'v) t
(** A typed cache space: one producer, one key type, one value type. *)

val create : name:string -> fp:('k -> Fingerprint.t) -> ('k, 'v) t
(** Register a space.  [name] must be globally unique (it labels the
    space's span attributes); reusing a name raises [Invalid_argument]. *)

val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [find_or_compute space k produce] returns the cached value for [k] or
    runs [produce] and caches the result.  With caching disabled it is
    exactly [produce ()]. *)

(** {1 Enablement} *)

val set_enabled : bool -> unit
(** Global switch; [--no-cache] sets it to [false] before any work runs. *)

val enabled : unit -> bool

(** {1 Bound and maintenance} *)

val max_entries : int
(** 4096: the most values the store holds across all spaces.  An insert
    that finds this many cached first empties every space, and counts the
    dropped values as evictions.  DESIGN.md section 10 has the measured
    peaks this is set against. *)

val clear : unit -> unit
(** Drop every cached value (counters keep accumulating). *)

(** {1 Introspection} *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;  (** values dropped by the {!max_entries} cap *)
  entries : int;  (** values cached now, across all spaces *)
}

val stats : unit -> stats
val stats_json : unit -> Obs.Sink.json
