(** Rooted spanning trees of a graph, and minimum spanning trees.

    A spanning tree is represented by parent pointers into the host graph,
    remembering for each non-root vertex the graph edge id to its parent.
    This is the object [T] that tree-restricted shortcuts live on. *)

type tree = {
  graph : Graph.t;
  root : int;
  parent : int array;  (** [-1] at the root *)
  parent_edge : int array;  (** graph edge id towards the parent; [-1] at root *)
  depth : int array;
  order : int array;  (** vertices in top-down (BFS) order *)
}

val bfs_tree : Graph.t -> int -> tree
(** BFS spanning tree rooted at the given vertex. Its height is at most the
    graph diameter, the setting of Theorem 1. Requires a connected graph.
    Memoized by (graph fingerprint, root); the returned tree is shared, so
    callers must not mutate its arrays. *)

val fingerprint : tree -> Memo.Fingerprint.t
(** Structural fingerprint over the host graph, root and parent pointers —
    the cache-key ingredient for tree-derived artifacts. *)

val height : tree -> int
(** Maximum depth; the [d_T] of the shortcut definitions (within a factor 2 of
    the tree's diameter). *)

val is_tree_edge : tree -> int -> bool
(** Whether a graph edge id belongs to the tree. *)

val tree_edges : tree -> int list
(** Edge ids of the tree (n-1 of them). *)

val children : tree -> int array array
(** Children lists, indexed by vertex. *)

val subtree_sizes : tree -> int array

val path_to_root : tree -> int -> int list
(** Vertices from [v] up to and including the root. *)

val check : tree -> (unit, string) result
(** Validates: parents form a forest rooted at [root] covering all vertices,
    parent edges exist in the graph and join the right endpoints, depths are
    consistent. *)

(** {1 Minimum spanning trees} *)

(** Both strategies below share one weight contract: [w] holds at least
    [Graph.m g] entries, indexed by edge id (extra entries are ignored),
    none of them NaN.  Every other float is allowed: the infinities,
    negative weights, and [-0.0], which ties with [0.0].
    @raise Invalid_argument naming the function and the two lengths when
    [w] is shorter than [m], or naming the first NaN edge id. *)

val kruskal : Graph.t -> Graph.weights -> int list
(** Edge ids of the minimum spanning forest under (weight, edge id)
    order — ties break on the lower edge id, making the forest unique
    and the result deterministic.  Ascending in that order.  The sort is
    a stable LSD radix over float-bit keys (see [Sort]); negative
    weights fall back to a monomorphic comparison sort. *)

val boruvka : Graph.t -> Graph.weights -> int list
(** The same unique minimum spanning forest as [kruskal] (identical edge
    list), computed without sorting the edges: each round is one pass
    over the live edge ids that reads both endpoints' compact component
    numbers, drops edges inside a component and keeps each component's
    minimum (weight, id) edge; only the chosen edges are contracted.
    The forest alone is then radix-sorted into [kruskal]'s order. *)

type strategy = Kruskal | Boruvka

val mst : ?strategy:strategy -> Graph.t -> Graph.weights -> int list
(** [mst ?strategy g w] dispatches to [kruskal] (default) or [boruvka];
    both return the identical unique forest, so the choice only affects
    speed. *)

val prim : Graph.t -> Graph.weights -> int list
(** Edge ids of an MST of the component of vertex 0. *)

val total_weight : Graph.weights -> int list -> float
