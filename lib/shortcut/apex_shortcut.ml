module Graph = Graphlib.Graph
module Spanning = Graphlib.Spanning

let cells_of_tree tree ~apices =
  let g = tree.Spanning.graph in
  let n = Graph.n g in
  let is_apex = Array.make n false in
  Array.iter (fun a -> is_apex.(a) <- true) apices;
  (* components of the forest T - apices, found by walking the BFS order so
     each component is discovered at its root (shallowest member) *)
  let cell_of = Array.make n (-1) in
  let roots = ref [] in
  let ncells = ref 0 in
  let buckets = ref [] in
  Array.iter
    (fun v ->
      if not is_apex.(v) then begin
        let p = tree.Spanning.parent.(v) in
        if v <> tree.Spanning.root && p >= 0 && (not is_apex.(p)) && cell_of.(p) >= 0
        then cell_of.(v) <- cell_of.(p)
        else begin
          cell_of.(v) <- !ncells;
          roots := v :: !roots;
          incr ncells;
          buckets := ref [] :: !buckets
        end
      end)
    tree.Spanning.order;
  let buckets = Array.of_list (List.rev !buckets) in
  let roots = Array.of_list (List.rev !roots) in
  Array.iteri (fun v c -> if c >= 0 then buckets.(c) := v :: !(buckets.(c))) cell_of;
  let cells = Part.of_list g (Array.to_list buckets |> List.map (fun r -> !r)) in
  (* Part.of_list orders parts as given; bucket c corresponds to part c
     because every bucket is nonempty (it contains its root) *)
  (cells, roots)

let construct_with_stats ?kappas ~apices tree parts =
  Obs.Span.with_
    ~attrs:[ ("apices", Obs.Sink.Int (Array.length apices)) ]
    "apex_shortcut.construct"
  @@ fun () ->
  let g = tree.Spanning.graph in
  let n = Graph.n g in
  let is_apex = Array.make n false in
  Array.iter (fun a -> is_apex.(a) <- true) apices;
  let nparts = Part.count parts in
  let all_tree_edges = Spanning.tree_edges tree in
  let assigned_global = Array.make nparts [] in
  (* (1) parts containing an apex get the whole tree *)
  let has_apex =
    Array.map (fun p -> Array.exists (fun v -> is_apex.(v)) p) parts.Part.parts
  in
  Array.iteri
    (fun i ha -> if ha then assigned_global.(i) <- all_tree_edges)
    has_apex;
  (* (2) cells *)
  let cells, roots = cells_of_tree tree ~apices in
  let ncells = Part.count cells in
  (* (3) relation via peeling; apex-owning parts are excluded by masking
     their vertices out of the incidence (they are already fully served) *)
  let masked_parts =
    {
      Part.parts =
        Array.mapi (fun i p -> if has_apex.(i) then [||] else p) parts.Part.parts;
      Part.part_of =
        Array.mapi
          (fun _v p -> if p >= 0 && has_apex.(p) then -1 else p)
          parts.Part.part_of;
    }
  in
  let res = Assignment.assign ~cells ~parts:masked_parts in
  (* (4) global shortcut: related parts get the cell subtree + uplink *)
  let cell_edges = Array.make ncells [] in
  List.iter
    (fun e ->
      let u, v = Graph.edge g e in
      if (not is_apex.(u)) && not is_apex.(v) then begin
        let c = cells.Part.part_of.(u) in
        if c >= 0 && c = cells.Part.part_of.(v) then cell_edges.(c) <- e :: cell_edges.(c)
      end)
    all_tree_edges;
  let uplink = Array.map (fun r -> tree.Spanning.parent_edge.(r)) roots in
  List.iter
    (fun (c, p) ->
      assigned_global.(p) <- List.rev_append cell_edges.(c) assigned_global.(p);
      if uplink.(c) >= 0 then assigned_global.(p) <- uplink.(c) :: assigned_global.(p))
    res.Assignment.relation;
  (* (5) local shortcut inside the <=2 leftover cells of each part *)
  let members = Array.make nparts [] in
  List.iter
    (fun (p, leftcells) ->
      if leftcells <> [] then begin
        let inset = Hashtbl.create 4 in
        List.iter (fun c -> Hashtbl.replace inset c ()) leftcells;
        members.(p) <-
          Array.to_list parts.Part.parts.(p)
          |> List.filter (fun v ->
                 let c = cells.Part.part_of.(v) in
                 c >= 0 && Hashtbl.mem inset c)
      end)
    res.Assignment.leftover;
  let sc, _ =
    Generic.sweep ~span:"apex_shortcut.sweep" Generic.Keep_kappa ~kappas
      ~global:assigned_global tree parts
      (Steiner.compute_restricted tree parts ~members)
  in
  (sc, `Beta res.Assignment.beta, `Cells ncells)

let construct ?kappas ~apices tree parts =
  let sc, _, _ = construct_with_stats ?kappas ~apices tree parts in
  sc
