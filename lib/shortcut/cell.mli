(** Cell partitions (Definition 14): disjoint connected low-diameter
    components. The canonical instance — BFS subtrees left by deleting the
    apices from the spanning tree — lives in
    {!Apex_shortcut.cells_of_tree}; this module adds generators and the
    diameter measurement the definition requires. *)

val bfs_cells : seed:int -> Graphlib.Graph.t -> count:int -> Part.t
(** Voronoi cells: connected, cover every vertex, expected diameter
    O(n/count + D/...) — the generic low-diameter partition. *)

val diameter : Graphlib.Graph.t -> Part.t -> int
(** Max induced diameter over the cells (the [d] in β(d), s(d)). *)

val check : Graphlib.Graph.t -> Part.t -> max_diameter:int -> (unit, string) result
(** Part validity plus the diameter bound. *)
