(** Hierarchical monotonic-clock spans ([Obs.Span.with_ ~name f] style).

    A span measures one dynamic extent of a named phase.  Spans nest; each
    completed span updates an in-process aggregation table (keyed by the
    '/'-joined path of open span names) and, when a sink is installed,
    emits one ["span"] event carrying name, path, depth, the recording
    domain's id, duration, self time, attributes — and, when {!Gcstat}
    sampling is on, a ["gc"] object with the span's allocation delta
    (self minor words first, then the {!Gcstat.fields}).

    Collection is disabled by default: [with_ name f] then just runs [f]
    behind a single bool check, so permanent instrumentation of hot library
    code is safe.

    The open-frame stack and aggregation table are per-domain, so worker
    domains record spans lock-free.  [Exec.Pool] seeds each worker with the
    spawning domain's innermost open path ({!fork_context}/{!adopt}) — so
    paths and depths match sequential execution — and merges worker tables
    back at join ({!capture}/{!absorb}). *)

val set_enabled : bool -> unit
val enabled : unit -> bool

val with_ : ?attrs:(string * Sink.json) list -> string -> (unit -> 'a) -> 'a
(** [with_ name f] runs [f] inside a span called [name].  The span closes
    when [f] returns or raises (the exception propagates). *)

val set_attr : string -> Sink.json -> unit
(** Attach a key/value attribute to the innermost open span, replacing an
    existing binding of the same key so high-frequency taggers (the memo
    cache) stay bounded per span; no-op when collection is off or no span
    is open. *)

type stat = {
  path : string;  (** '/'-joined names of the span and its ancestors *)
  name : string;
  depth : int;
  mutable calls : int;
  mutable total_ns : int64;
  mutable self_ns : int64;  (** total minus direct children's totals *)
  mutable minor_words : float;
      (** minor-heap allocation inside the span; 0 unless {!Gcstat} was
          enabled while the span ran *)
  mutable self_minor_words : float;
      (** minor allocation minus direct children's — partitions a run's
          allocation across paths *)
  mutable major_words : float;
}

val stats : unit -> stat list
(** Aggregated per-path stats since the last {!reset}, in tree order
    (parents immediately before their children). *)

val reset : unit -> unit
(** Clear the calling domain's aggregation table and any dangling open
    frames. *)

(** {1 Pool support}

    Used by [Exec.Pool]; see {!Obs.capture_domain}. *)

type fork_ctx

val fork_context : unit -> fork_ctx
(** The calling domain's innermost open span path, to seed workers with. *)

val adopt : fork_ctx -> unit
(** Make spans opened on this domain's empty stack nest under the given
    context, as if they had been opened where {!fork_context} was called. *)

type snapshot

val capture : unit -> snapshot
(** Detach the calling domain's aggregation table (clearing stack and
    adopted context) for later {!absorb} on another domain. *)

val absorb : snapshot -> unit
(** Merge a captured table into the calling domain's, summing calls and
    times per path. *)

val render_table : ?min_ms:float -> ?alloc:bool -> unit -> string
(** Indented calls/total/self table of {!stats}; rows with total below
    [min_ms] (default 0) are hidden.  With [alloc] (default false) two
    extra columns show minor-heap allocation (total and self, in millions
    of words) — meaningful only when {!Gcstat} sampling was enabled. *)
