(** Public facade: one-stop access to the whole library.

    The layering mirrors the paper:
    - {!Graph}, {!Generators}, ...: the graph substrate;
    - {!Clique_sum}, {!Almost_embeddable}, ...: the Graph Structure Theorem
      toolkit (witness structures and their checkers);
    - {!Shortcut}, {!Generic}, {!Cs_shortcut}, ...: tree-restricted
      low-congestion shortcuts, the paper's contribution;
    - {!Network}, {!Mst}, {!Mincut}, ...: the CONGEST simulator and the
      distributed algorithms of Theorem 1 / Corollary 1;
    - the top-level helpers below: the end-to-end calls a downstream user
      makes. *)

(* observability: spans, metrics, JSONL sink (DESIGN.md section 8) *)
module Obs = Obs
module Span = Obs.Span
module Metrics = Obs.Metrics
module Sink = Obs.Sink

(* graph substrate *)
module Graph = Graphlib.Graph
module Union_find = Graphlib.Union_find
module Pqueue = Graphlib.Pqueue
module Traversal = Graphlib.Traversal
module Distance = Graphlib.Distance
module Spanning = Graphlib.Spanning
module Subgraph = Graphlib.Subgraph
module Generators = Graphlib.Generators
module Dot = Graphlib.Dot
module Io = Graphlib.Io

(* graph structure theorem toolkit *)
module Lca = Structure.Lca
module Heavy_light = Structure.Heavy_light
module Tree_decomposition = Structure.Tree_decomposition
module Treewidth = Structure.Treewidth
module Planarity = Structure.Planarity
module Embedding = Structure.Embedding
module Minor = Structure.Minor
module Clique_sum = Structure.Clique_sum
module Fold = Structure.Fold
module Vortex = Structure.Vortex
module Almost_embeddable = Structure.Almost_embeddable
module Genus_vortex = Structure.Genus_vortex
module Sp = Structure.Sp
module Separator = Structure.Separator

(* shortcuts *)
module Part = Shortcuts.Part
module Shortcut = Shortcuts.Shortcut
module Steiner = Shortcuts.Steiner
module Generic = Shortcuts.Generic
module Cs_shortcut = Shortcuts.Cs_shortcut
module Tw_shortcut = Shortcuts.Tw_shortcut
module Assignment = Shortcuts.Assignment
module Apex_shortcut = Shortcuts.Apex_shortcut
module Gate = Shortcuts.Gate
module Cell = Shortcuts.Cell
module Quality = Shortcuts.Quality
module Optimal = Shortcuts.Optimal

(* fault injection and resilience (DESIGN.md section 11) *)
module Faults = Faults
module Rng = Faults.Rng
module Degrade = Faults.Degrade

(* asynchronous CONGEST (DESIGN.md section 16) *)
module Asynch = Asynch
module Latency = Asynch.Latency
module Synchronizer = Asynch.Synchronizer

(* CONGEST *)
module Network = Congest.Network
module Resilient = Congest.Resilient
module Trace = Congest.Trace
module Dist_bfs = Congest.Bfs
module Aggregate = Congest.Aggregate
module Mst = Congest.Mst
module Mincut = Congest.Mincut
module Construct = Congest.Construct
module Partition = Congest.Partition
module Sssp = Congest.Sssp
module Leader = Congest.Leader

(** [shortcut g ~parts] runs the uniform near-optimal construction on a BFS
    tree of [g] (rooted at [root], default 0) — the single call a user needs
    before running part-wise aggregations. *)
let shortcut ?(root = 0) g ~parts =
  let tree = Spanning.bfs_tree g root in
  Generic.construct tree parts

(** Quality triple [(b, c, q)] achieved by {!shortcut} on the given
    workload. *)
let shortcut_quality ?root g ~parts =
  let sc = shortcut ?root g ~parts in
  (Shortcut.block_parameter sc, Shortcut.congestion sc, Shortcut.quality sc)

(** Distributed MST via shortcut-Boruvka (Corollary 1). Returns the MST edge
    ids, the MST weight, and the simulated CONGEST round count. *)
let mst ?(constructor = Mst.shortcut_constructor) g w =
  let report = Mst.boruvka ~constructor g w in
  (report.Mst.mst_edges, report.Mst.mst_weight, report.Mst.rounds)

(** Distributed approximate min-cut (Corollary 1); [trees] controls the
    accuracy/round tradeoff. Returns (estimate, simulated rounds). *)
let mincut ?(trees = 8) ?(seed = 1) g w =
  let r = Mincut.approx ~trees ~seed ~constructor:Mst.shortcut_constructor g w in
  (r.Mincut.estimate, r.Mincut.rounds)
