(** Immutable undirected graphs with dense vertex and edge identifiers,
    stored as a flat CSR (compressed sparse row) structure over
    [Bigarray]-backed int arrays (DESIGN.md section 12).

    Vertices are integers [0 .. n-1]. Every undirected edge has a unique id
    in [0 .. m-1]; parallel edges and self-loops are rejected at construction
    time (the CONGEST model ignores self-loops, cf. paper §1.3).

    Layout contract: for each vertex the CSR segment lists incident
    [(neighbor, edge_id)] pairs in {e edge-insertion order} — BFS tie
    breaking, Voronoi growth and hence every recorded experiment number
    depend on that order.  A per-segment sorted permutation additionally
    supports the O(log degree) binary-search adjacency lookups
    ({!find_edge}/{!mem_edge}).

    The payload lives outside the OCaml heap, so a graph built once is
    shared zero-copy across [Exec.Pool] domains and costs the GC nothing
    to retain — the substrate for n >= 10^6 experiments. *)

type t

type int_bigarray = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The backing store type: one [Bigarray.int] element per entry. *)

(** {1 Accessors} *)

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of undirected edges. *)

val edge : t -> int -> int * int
(** [edge g e] is the endpoint pair of edge [e], in insertion order. *)

val edge_u : t -> int -> int
(** First endpoint of [e] (insertion order) — the allocation-free half of
    {!edge}. *)

val edge_v : t -> int -> int
(** Second endpoint of [e]. *)

val edges : t -> (int * int) array
(** All endpoint pairs, indexed by edge id. Materialized fresh from the CSR
    arrays on every call; prefer {!edge_u}/{!edge_v}/{!iter_edges} on hot
    paths. *)

val degree : t -> int -> int

val iter_adj : t -> int -> (int -> int -> unit) -> unit
(** [iter_adj g v f] calls [f neighbor edge_id] for every incident edge of
    [v], in edge-insertion order.  The allocation-free replacement for the
    old boxed [adj] array. *)

val fold_adj : t -> int -> init:'a -> f:('a -> int -> int -> 'a) -> 'a
(** [fold_adj g v ~init ~f] folds [f acc neighbor edge_id] over the
    incident edges of [v] in edge-insertion order. *)

val exists_adj : t -> int -> (int -> int -> bool) -> bool
(** [exists_adj g v p] is true iff [p neighbor edge_id] holds for some
    incident edge of [v]; short-circuits in edge-insertion order. *)

val neighbors : t -> int -> int array
(** [neighbors g v] is the neighbor list of [v] (fresh array), in
    edge-insertion order. *)

(** {2 Raw CSR indexing}

    For consumers that need random access into a vertex's segment (the
    CONGEST fabric's send and inbox walks, the planarity rotation builder).
    Positions [adj_offset g v .. adj_offset g (v+1) - 1] hold [v]'s
    incident pairs in edge-insertion order. *)

val adj_offset : t -> int -> int
(** Start of [v]'s CSR segment; [adj_offset g (n g)] is [2 * m g]. *)

val adj_dst : t -> int -> int
(** Neighbor id stored at raw CSR position [p]. *)

val adj_eid : t -> int -> int
(** Edge id stored at raw CSR position [p]. *)

val adj_sorted : t -> int -> int
(** [adj_sorted g i] is the raw CSR position at sorted index [i]: for
    [adj_offset g v <= i < adj_offset g (v+1)], these positions list [v]'s
    incident pairs by ascending neighbor id. *)

val other_endpoint : t -> int -> int -> int
(** [other_endpoint g e v] is the endpoint of [e] distinct from [v].
    @raise Invalid_argument if [v] is not an endpoint of [e]. *)

val mem_edge : t -> int -> int -> bool
(** [mem_edge g u v] tests adjacency (binary search, O(log (degree g u))). *)

val find_edge : t -> int -> int -> int option
(** Edge id joining [u] and [v], if any. *)

val find_edge_id : t -> int -> int -> int
(** Like {!find_edge} but returns [-1] when absent: the allocation-free
    lookup the CONGEST engine's targeted-send path uses. *)

val fingerprint : t -> Memo.Fingerprint.t
(** Structural fingerprint over [n] and the edge array in insertion order;
    computed once and cached on the graph.  The cache key ingredient for
    every graph-derived memoized artifact. *)

(** {1 Construction} *)

(** Incremental construction for large graphs: push raw endpoint pairs
    (self-loops dropped, duplicates in either orientation merged keeping
    the first occurrence) into growable off-heap arrays, then seal into a
    CSR graph in O(n + m) without hash tables or boxed intermediaries. *)
module Builder : sig
  type graph = t
  type t

  val create : ?edges_hint:int -> int -> t
  (** [create n] starts a builder over vertices [0 .. n-1]; [edges_hint]
      pre-sizes the raw edge store. *)

  val add_edge : t -> int -> int -> unit
  (** Record one endpoint pair.  Self-loops are dropped silently (matching
      the historical [of_edges] semantics).
      @raise Invalid_argument on an out-of-range endpoint. *)

  val build : t -> graph
  (** Seal: dedup keeping first occurrences, number surviving edges in
      insertion order, and lay out the CSR arrays.  The builder may be
      reused afterwards ([build] does not mutate recorded pairs). *)
end

val of_edges : int -> (int * int) list -> t
(** [of_edges n edges] builds a graph on [n] vertices. Duplicate edges (in
    either orientation) are merged; self-loops are dropped. *)

val complete : int -> t
(** Complete graph [K_n]. *)

val iter_edges : t -> (int -> int -> int -> unit) -> unit
(** [iter_edges g f] calls [f e u v] for every edge. *)

val fold_edges : t -> init:'a -> f:('a -> int -> int -> int -> 'a) -> 'a

(** {1 Weights}

    Edge weights live outside the graph, keyed by edge id, so the same
    topology can carry many weight functions (random weights for tree
    packing, unit weights for BFS checks, ...). *)

type weights = float array

val unit_weights : t -> weights

val random_weights : ?state:Random.State.t -> t -> weights
(** Distinct-ish uniform weights in (0,1); with a seeded state for
    reproducibility. *)

val pp : t Fmt.t
(** Terse description, ["graph(n=.., m=..)"]. *)
