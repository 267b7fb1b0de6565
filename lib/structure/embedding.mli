(** Combinatorial embeddings (rotation systems) on orientable surfaces.

    A dart is a directed half-edge: edge [e] yields darts [2e] (u -> v) and
    [2e+1] (v -> u). The rotation at a vertex lists its outgoing darts in
    counterclockwise cyclic order. Face tracing and the Euler formula give
    the genus of the embedding; the tree–cotree decomposition and the cut
    graph implement the planarization of the paper's Appendix A
    (Lemma 11, Figure 7). *)

type t = {
  graph : Graphlib.Graph.t;
  rot : int array array;  (** per vertex, outgoing darts in cyclic order *)
}

val dart_tail : Graphlib.Graph.t -> int -> int
val rev : int -> int

val of_coords : Graphlib.Graph.t -> (float * float) array -> t
(** Rotations by angular order around each vertex: genus 0 for straight-line
    planar inputs. *)

val torus_grid : int -> int -> t
(** The natural genus-1 embedding of [Generators.torus_grid]. *)

val faces : t -> int array * int
(** [(face_of_dart, nfaces)]: the face orbit id of every dart. *)

val genus : t -> int
(** Euler genus of the embedding: [(2 - n + m - f) / 2] (graph connected). *)

val tree_cotree : t -> Graphlib.Spanning.tree -> int list
(** The edges in neither the primal spanning tree nor a dual spanning tree
    avoiding it [Epp03]; exactly [2 * genus] of them. Their induced
    fundamental cycles generate the surface's fundamental group. *)

val induced_cycle_edges : Graphlib.Spanning.tree -> int -> int list
(** For a non-tree edge, the edge set of its fundamental cycle w.r.t. the
    tree (the edge itself plus the tree path between its endpoints). *)

val cut_graph : t -> cut:bool array -> Graphlib.Graph.t * int array
(** [cut_graph emb ~cut] cuts the surface along the marked edge set
    (Definition 18): every vertex incident to [k >= 1] cut darts splits into
    [k] copies, one per maximal rotation interval bounded by cut darts; each
    cut edge splits into its two sides. Returns the cut graph and the
    projection from new vertices to original ones. Cutting along the
    fundamental cycles of the [tree_cotree] edges yields a planar graph
    (Lemma 11). *)

val planarize : t -> Graphlib.Spanning.tree -> Graphlib.Graph.t * int array * int
(** Convenience: tree–cotree, cut along all induced cycles, return
    [(planar graph, projection, number of generating edges)]. *)
