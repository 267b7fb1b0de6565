module Graph = Graphlib.Graph
module Spanning = Graphlib.Spanning
module Clique_sum = Structure.Clique_sum
module Fold = Structure.Fold
module Lca = Structure.Lca

(* Euler intervals (tin/tout) of a rooted tree given by parent pointers *)
let euler_intervals fparent =
  let n = Array.length fparent in
  let kids = Array.make n [] in
  let root = ref (-1) in
  Array.iteri
    (fun i p -> if p < 0 then root := i else kids.(p) <- i :: kids.(p))
    fparent;
  let tin = Array.make n 0 and tout = Array.make n 0 in
  let timer = ref 0 in
  let rec dfs v =
    tin.(v) <- !timer;
    incr timer;
    List.iter dfs kids.(v);
    tout.(v) <- !timer;
    incr timer
  in
  if !root >= 0 then dfs !root;
  (tin, tout, kids, !root)

let depths fparent =
  let n = Array.length fparent in
  let d = Array.make n (-1) in
  let rec dep i =
    if d.(i) >= 0 then d.(i)
    else begin
      let v = if fparent.(i) < 0 then 0 else dep fparent.(i) + 1 in
      d.(i) <- v;
      v
    end
  in
  for i = 0 to n - 1 do
    ignore (dep i)
  done;
  d

let c_global_grants = Obs.Metrics.counter "cs_shortcut.global_grants"

let construct_with_stats ?(use_fold = true) ?kappas cs tree parts =
  Obs.Span.with_
    ~attrs:
      [
        ("use_fold", Obs.Sink.Bool use_fold);
        ("bags", Obs.Sink.Int (Array.length cs.Clique_sum.bags));
      ]
    "cs_shortcut.construct"
  @@ fun () ->
  let g = cs.Clique_sum.graph in
  let n = Graph.n g in
  let folded =
    if use_fold then Fold.fold ~parent:cs.Clique_sum.parent
    else Fold.trivial ~parent:cs.Clique_sum.parent
  in
  let ngroups = Array.length folded.Fold.groups in
  (* group vertex membership *)
  let groups_of_vertex = Array.make n [] in
  Array.iteri
    (fun grp bag_ids ->
      List.iter
        (fun b ->
          Array.iter
            (fun v ->
              if not (List.mem grp groups_of_vertex.(v)) then
                groups_of_vertex.(v) <- grp :: groups_of_vertex.(v))
            cs.Clique_sum.bags.(b))
        bag_ids)
    folded.Fold.groups;
  let group_vset =
    Array.map
      (fun bag_ids ->
        let s = Hashtbl.create 64 in
        List.iter
          (fun b -> Array.iter (fun v -> Hashtbl.replace s v ()) cs.Clique_sum.bags.(b))
          bag_ids;
        s)
      folded.Fold.groups
  in
  let fparent = folded.Fold.fparent in
  let tin, tout, kids, _root = euler_intervals fparent in
  let fdepth = depths fparent in
  let flca = Lca.create ~parent:fparent ~depth:fdepth in
  let in_subtree anc v = tin.(anc) <= tin.(v) && tout.(v) <= tout.(anc) in
  (* per tree edge: the groups containing both endpoints *)
  let tree_edge_list = Spanning.tree_edges tree in
  let groups_of_edge = Hashtbl.create (2 * n) in
  List.iter
    (fun e ->
      let u, v = Graph.edge g e in
      let gs =
        List.filter (fun grp -> Hashtbl.mem group_vset.(grp) v) groups_of_vertex.(u)
      in
      Hashtbl.replace groups_of_edge e gs)
    tree_edge_list;
  (* per group: tree edges lying inside it *)
  let own_edges = Array.make ngroups [] in
  Hashtbl.iter
    (fun e gs -> List.iter (fun grp -> own_edges.(grp) <- e :: own_edges.(grp)) gs)
    groups_of_edge;
  (* per part: groups it intersects and their LCA *)
  let nparts = Part.count parts in
  let hp = Array.make nparts (-1) in
  let part_groups = Array.make nparts [] in
  Array.iteri
    (fun i p ->
      let gs = ref [] in
      Array.iter
        (fun v ->
          List.iter
            (fun grp -> if not (List.mem grp !gs) then gs := grp :: !gs)
            groups_of_vertex.(v))
        p;
      part_groups.(i) <- !gs;
      hp.(i) <- (match !gs with [] -> -1 | _ -> Lca.lca_of_list flca !gs))
    parts.Part.parts;
  (* global shortcut per part *)
  let global = Array.make nparts [] in
  let global_grants = ref 0 in
  for i = 0 to nparts - 1 do
    let h = hp.(i) in
    if h >= 0 then begin
      (* qualifying children: subtrees of h containing a group of the part *)
      let qual =
        List.filter
          (fun c -> List.exists (fun grp -> in_subtree c grp) part_groups.(i))
          kids.(h)
      in
      List.iter
        (fun c ->
          (* all tree edges inside groups of subtree(c), except those also in h *)
          let rec collect grp =
            List.iter
              (fun e ->
                let gs = Hashtbl.find groups_of_edge e in
                if not (List.mem h gs) then begin
                  global.(i) <- e :: global.(i);
                  incr global_grants
                end)
              own_edges.(grp);
            List.iter collect kids.(grp)
          in
          collect c)
        qual
    end
  done;
  (* local shortcut: parts restricted to their LCA group *)
  let members =
    Array.init nparts (fun i ->
        let h = hp.(i) in
        if h < 0 then []
        else
          Array.to_list parts.Part.parts.(i)
          |> List.filter (fun v -> Hashtbl.mem group_vset.(h) v))
  in
  Obs.Metrics.add c_global_grants !global_grants;
  let sc, _ =
    Generic.sweep ~span:"cs_shortcut.sweep" Generic.Keep_kappa ~kappas ~global tree
      parts
      (Steiner.compute_restricted tree parts ~members)
  in
  (sc, `Global_grants !global_grants, `Depth_used (Fold.depth folded))

let construct ?use_fold ?kappas cs tree parts =
  let sc, _, _ = construct_with_stats ?use_fold ?kappas cs tree parts in
  sc
