(* GC/allocation probes over [Gc.quick_stat].

   A [sample] freezes the allocation counters at one instant; [delta]
   subtracts two samples into the work done between them.  [Span] takes a
   sample when a frame opens and computes the delta at close, subtracting
   the children's deltas the same way it does for wall time — so a span's
   *self* allocation partitions the total allocation of the extent it
   covers, and summing [gc.minor_words] counter bumps over all spans never
   double-counts nested work.

   Sampling is off by default and gated separately from spans: the bench
   and the CLI turn it on next to [Span.set_enabled true], while library
   code that only ever runs under disabled probes pays nothing.
   [Gc.quick_stat] reads per-domain counters without stopping the world,
   so the probe is safe on [Exec.Pool] worker domains. *)

type sample = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words : int;  (* absolute major-heap size, not a delta *)
}

let zero =
  {
    minor_words = 0.0;
    promoted_words = 0.0;
    major_words = 0.0;
    minor_collections = 0;
    major_collections = 0;
    compactions = 0;
    heap_words = 0;
  }

let on = ref false
let set_enabled v = on := v
let enabled () = !on

let take () =
  let s = Gc.quick_stat () in
  {
    (* quick_stat's minor_words only advances at collection points, so a
       delta over a window with no minor GC inside would read zero;
       [Gc.minor_words] reads the allocation pointer and is exact *)
    minor_words = Gc.minor_words ();
    promoted_words = s.Gc.promoted_words;
    major_words = s.Gc.major_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
    compactions = s.Gc.compactions;
    heap_words = s.Gc.heap_words;
  }

let delta ~before ~after =
  {
    minor_words = after.minor_words -. before.minor_words;
    promoted_words = after.promoted_words -. before.promoted_words;
    major_words = after.major_words -. before.major_words;
    minor_collections = after.minor_collections - before.minor_collections;
    major_collections = after.major_collections - before.major_collections;
    compactions = after.compactions - before.compactions;
    heap_words = after.heap_words;  (* report where the heap ended up *)
  }

(* Rendered into span events and --ledger entries.  Word counts round to
   integers: quick_stat's floats exist to survive 32-bit counters, not to
   carry sub-word precision. *)
let fields d =
  [
    ("minor_words", Sink.Int (int_of_float d.minor_words));
    ("promoted_words", Sink.Int (int_of_float d.promoted_words));
    ("major_words", Sink.Int (int_of_float d.major_words));
    ("minor_gcs", Sink.Int d.minor_collections);
    ("major_gcs", Sink.Int d.major_collections);
    ("heap_words", Sink.Int d.heap_words);
  ]
  @ if d.compactions > 0 then [ ("compactions", Sink.Int d.compactions) ] else []

let json d = Sink.Obj (fields d)

(* gc.* metrics, fed with *self* deltas by [Span.close] so the counters
   partition allocation across span paths (see module comment). *)
let c_minor = Metrics.counter "gc.minor_words"
let c_promoted = Metrics.counter "gc.promoted_words"
let c_major = Metrics.counter "gc.major_words"
let c_minor_gcs = Metrics.counter "gc.minor_collections"
let c_major_gcs = Metrics.counter "gc.major_collections"
let g_heap = Metrics.gauge "gc.heap_words"

let record_self ~self_minor ~self_promoted ~self_major d =
  Metrics.add c_minor (int_of_float self_minor);
  Metrics.add c_promoted (int_of_float self_promoted);
  Metrics.add c_major (int_of_float self_major);
  Metrics.add c_minor_gcs d.minor_collections;
  Metrics.add c_major_gcs d.major_collections;
  Metrics.set g_heap (float_of_int d.heap_words)
