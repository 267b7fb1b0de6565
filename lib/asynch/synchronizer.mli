(** α-synchronizer: unmodified step-API algorithms on the asynchronous
    fabric (DESIGN.md §16).

    Pulse [p] of the synchronizer is round [p] of the synchronous engine.
    A node executes pulse [p + 1] once every data message it sent at
    pulse [p] is acknowledged and it holds a [safe(p)] from every live
    neighbor; data messages carry their pulse stamp, so each node
    consumes exactly the inbox the synchronous engine would hand it, in
    the same descending-sender order — final states and round counts are
    byte-identical to [Congest.Network.run] by construction (and checked
    by the sync-equality oracle in [test/test_asynch.ml]).  What changes
    is *time*: the run reports how much simulated time the lock-step
    abstraction costs under a given latency distribution, and how much
    control traffic (acks + safes) the synchronizer burns to maintain
    it.

    Determinism: the event queue is keyed [(delivery_time, edge, seq)]
    and all samples come from the spec's named streams in event order, so
    a run is a pure function of (graph, algorithm, spec, fault plan).

    Cost: after warm-up no event allocates — its pulse and kind ride in
    the heap payload and its edge is the heap key.  A data message's
    words are written into the fabric's parity arena when it is sent
    (see [Congest.Network.Hook]), so the executor never copies or holds
    a payload, and a crash plan's live counts are derived once per run
    from the fixed crash rounds. *)

type report = {
  pulses : int;  (** synchronizer pulses = synchronous rounds *)
  sim_time : float;  (** simulated makespan, in latency time units *)
  data_msgs : int;  (** algorithm messages accepted onto the wire *)
  ctrl_msgs : int;  (** synchronizer overhead: acks + safe notifications *)
  events : int;  (** events processed by the scheduler *)
  queue_hwm : int;  (** event-queue depth high-water mark *)
  converged : bool;
  timeline : (float * int * int) array;
      (** per completed wave, when requested: (sim time, queue depth,
          cumulative data messages) — the Chrome-trace lane source *)
}

val run :
  ?bandwidth:int ->
  ?max_rounds:int ->
  ?trace:Congest.Trace.t ->
  ?faults:Faults.plan ->
  ?timeline:bool ->
  spec:Latency.spec ->
  Graphlib.Graph.t ->
  'st Congest.Network.algo ->
  'st array * Congest.Network.stats * report
(** One algorithm run on the async substrate.  Defaults mirror
    [Network.run]; [timeline] (default false) records the per-wave
    samples.  Drop/link faults fire at send time from the sync engine's
    streams; a delay roll of [k] stretches that message's latency
    [(k+1)×]; crashed nodes stop pulsing at their crash round and the
    simulator plays a perfect failure detector so the handshake cannot
    deadlock. *)

type summary = {
  runs : int;  (** [Network.run] calls intercepted *)
  pulses : int;
  sim_time : float;  (** sequential composition across runs *)
  data_msgs : int;
  ctrl_msgs : int;
  events : int;
  queue_hwm : int;
  all_converged : bool;
  timeline : (float * int * int) array;
}

val with_substrate :
  ?timeline:bool -> spec:Latency.spec -> (unit -> 'a) -> 'a * summary
(** [with_substrate ~spec f] installs the synchronizer as this domain's
    execution substrate ({!Congest.Network.with_runner}) and runs [f]:
    every [Network.run] inside — including the ones buried in the
    [Bfs]/[Sssp]/[Leader]/[Mst]/[Mincut]/[Aggregate] entry points —
    executes event-driven under [spec], with simulated time accumulating
    across nested runs.  Updates the [asynch.*] counters and the
    [asynch.queue_depth] gauge on exit. *)

val observe : label:string -> spec:Latency.spec -> summary -> unit
(** Record a summary into telemetry: the per-algorithm
    [asynch.sim_time.<label>] histogram, plus an [asynch_summary] JSONL
    event (with the timeline series when one was collected) if the sink
    is enabled. *)

val summary_fields :
  label:string -> spec:Latency.spec -> summary -> (string * Obs.Sink.json) list
