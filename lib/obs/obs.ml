(** Observability for the shortcut-construction pipeline.

    Three cooperating pieces (DESIGN.md section 8):

    - {!Span}: hierarchical monotonic-clock spans over pipeline phases
      ([Obs.Span.with_ "steiner.compute" f]);
    - {!Metrics}: process-global counters / gauges / histograms with O(1)
      hot-path updates;
    - {!Sink}: a structured JSONL event sink plus the repo's one shared,
      spec-correct JSON encoder.  Spans and metrics emit into the installed
      sink; {!Congest.Trace} summaries land in the same stream, so one
      JSONL file covers construction and simulation.

    Everything is off by default: with no sink installed and spans
    disabled, the instrumentation in library code costs a bool check per
    call site.

    All three pieces are domain-safe: values accumulate in per-domain state
    and [Exec.Pool] merges worker state into the pool-owning domain at join
    via {!capture_domain}/{!absorb_domain} — the only synchronization on
    the instrumentation hot path is the sink's per-line-buffer mutex, taken
    when a 64 KiB buffer drains. *)

module Clock = Clock
module Sink = Sink
module Span = Span
module Metrics = Metrics
module Gcstat = Gcstat
module Export = Export
module Rusage = Rusage
module Ledger = Ledger

let reset_all () =
  Span.reset ();
  Metrics.reset ()

(** Everything a worker domain accumulated, bundled for the pool join. *)
type domain_state = { spans : Span.snapshot; metrics : Metrics.snapshot }

let capture_domain () =
  (* push buffered sink lines out first: the sink counts and orders events
     at the channel, not in the snapshot *)
  Sink.flush_local ();
  { spans = Span.capture (); metrics = Metrics.capture () }

let absorb_domain { spans; metrics } =
  Span.absorb spans;
  Metrics.absorb metrics
