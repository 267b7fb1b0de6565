module Graph = Graphlib.Graph
module Spanning = Graphlib.Spanning
module Union_find = Graphlib.Union_find

type t = { graph : Graph.t; rot : int array array }

let dart_tail g d =
  let u, v = Graph.edge g (d / 2) in
  if d land 1 = 0 then u else v

let rev d = d lxor 1

let dart_of g e v =
  let u, _ = Graph.edge g e in
  if v = u then 2 * e else (2 * e) + 1

let of_coords g coords =
  let rot =
    Array.init (Graph.n g) (fun v ->
        let vx, vy = coords.(v) in
        let lo = Graph.adj_offset g v in
        let darts =
          Array.init (Graph.degree g v) (fun i ->
              let w = Graph.adj_dst g (lo + i) and e = Graph.adj_eid g (lo + i) in
              let wx, wy = coords.(w) in
              (atan2 (wy -. vy) (wx -. vx), dart_of g e v))
        in
        Array.sort
          (fun (a, da) (b, db) ->
            match Float.compare a b with 0 -> Int.compare da db | c -> c)
          darts;
        Array.map snd darts)
  in
  { graph = g; rot }

let torus_grid w h =
  let g = Graphlib.Generators.torus_grid w h in
  let id x y = (y * w) + x in
  let rot =
    Array.init (w * h) (fun v ->
        let x = v mod w and y = v / w in
        let nb =
          [| id ((x + 1) mod w) y; id x ((y + 1) mod h); id ((x + w - 1) mod w) y; id x ((y + h - 1) mod h) |]
        in
        Array.map
          (fun u ->
            match Graph.find_edge g v u with
            | Some e -> dart_of g e v
            | None -> invalid_arg "torus_grid embedding: missing edge")
          nb)
  in
  { graph = g; rot }

(* position of a dart in its tail's rotation *)
let rotation_index emb =
  let g = emb.graph in
  let idx = Array.make (2 * Graph.m g) (-1) in
  Array.iter (fun r -> Array.iteri (fun i d -> idx.(d) <- i) r) emb.rot;
  ignore idx;
  idx

let faces emb =
  let g = emb.graph in
  let nd = 2 * Graph.m g in
  let idx = rotation_index emb in
  let next_in_face d =
    (* after traversing dart d, turn at head(d): successor of rev(d) in the
       rotation of head(d) *)
    let r = rev d in
    let v = dart_tail g r in
    let rotv = emb.rot.(v) in
    rotv.((idx.(r) + 1) mod Array.length rotv)
  in
  let face = Array.make nd (-1) in
  let nf = ref 0 in
  for d0 = 0 to nd - 1 do
    if face.(d0) < 0 then begin
      let d = ref d0 in
      let continue_ = ref true in
      while !continue_ do
        face.(!d) <- !nf;
        d := next_in_face !d;
        if !d = d0 then continue_ := false
      done;
      incr nf
    end
  done;
  (face, !nf)

let genus emb =
  let g = emb.graph in
  let _, f = faces emb in
  let e2 = 2 - Graph.n g + Graph.m g - f in
  if e2 < 0 || e2 land 1 = 1 then 0 else e2 / 2

let tree_cotree emb tree =
  let g = emb.graph in
  let face, nf = faces emb in
  let uf = Union_find.create nf in
  let leftovers = ref [] in
  Graph.iter_edges g (fun e _ _ ->
      if not (Spanning.is_tree_edge tree e) then begin
        let f1 = face.(2 * e) and f2 = face.((2 * e) + 1) in
        if not (Union_find.union uf f1 f2) then leftovers := e :: !leftovers
      end);
  !leftovers

let induced_cycle_edges tree e =
  let g = tree.Spanning.graph in
  let u, v = Graph.edge g e in
  (* climb to equal depth, then in lockstep *)
  let acc = ref [ e ] in
  let a = ref u and b = ref v in
  while tree.Spanning.depth.(!a) > tree.Spanning.depth.(!b) do
    acc := tree.Spanning.parent_edge.(!a) :: !acc;
    a := tree.Spanning.parent.(!a)
  done;
  while tree.Spanning.depth.(!b) > tree.Spanning.depth.(!a) do
    acc := tree.Spanning.parent_edge.(!b) :: !acc;
    b := tree.Spanning.parent.(!b)
  done;
  while !a <> !b do
    acc := tree.Spanning.parent_edge.(!a) :: tree.Spanning.parent_edge.(!b) :: !acc;
    a := tree.Spanning.parent.(!a);
    b := tree.Spanning.parent.(!b)
  done;
  !acc

let cut_graph emb ~cut =
  let g = emb.graph in
  let n = Graph.n g in
  (* per vertex, the list of intervals; each dart maps to copies *)
  let copy_count = ref 0 in
  (* for each vertex: either a single copy id, or for cut vertices the
     positions of cut darts and the interval copy ids *)
  let single = Array.make n (-1) in
  (* for non-cut darts: the copy id of the interval containing them *)
  let nd = 2 * Graph.m g in
  let dart_copy = Array.make nd (-1) in
  (* for cut darts d: the copy that has d as its starting boundary and the
     copy that has d as its ending boundary *)
  let start_copy = Array.make nd (-1) in
  let end_copy = Array.make nd (-1) in
  for v = 0 to n - 1 do
    let rotv = emb.rot.(v) in
    let len = Array.length rotv in
    let cut_pos = ref [] in
    Array.iteri (fun i d -> if cut.(d / 2) then cut_pos := i :: !cut_pos) rotv;
    let cut_pos = Array.of_list (List.rev !cut_pos) in
    let k = Array.length cut_pos in
    if k = 0 then begin
      single.(v) <- !copy_count;
      Array.iter (fun d -> dart_copy.(d) <- !copy_count) rotv;
      incr copy_count
    end
    else
      (* interval i runs from cut_pos.(i) to cut_pos.((i+1) mod k), both
         bounding cut darts included *)
      for i = 0 to k - 1 do
        let c = !copy_count in
        incr copy_count;
        let p = cut_pos.(i) and q = cut_pos.((i + 1) mod k) in
        start_copy.(rotv.(p)) <- c;
        end_copy.(rotv.(q)) <- c;
        (* interior non-cut darts between p and q (cyclically) *)
        let j = ref ((p + 1) mod len) in
        while !j <> q do
          let d = rotv.(!j) in
          if not (cut.(d / 2)) then dart_copy.(d) <- c;
          j := (!j + 1) mod len
        done
      done
  done;
  let proj = Array.make !copy_count (-1) in
  for v = 0 to n - 1 do
    if single.(v) >= 0 then proj.(single.(v)) <- v
  done;
  Array.iteri
    (fun d c ->
      if c >= 0 && proj.(c) < 0 then proj.(c) <- dart_tail g d)
    dart_copy;
  Array.iteri (fun d c -> if c >= 0 && proj.(c) < 0 then proj.(c) <- dart_tail g d) start_copy;
  Array.iteri (fun d c -> if c >= 0 && proj.(c) < 0 then proj.(c) <- dart_tail g d) end_copy;
  let edges = ref [] in
  Graph.iter_edges g (fun e _ _ ->
      let d = 2 * e and d' = (2 * e) + 1 in
      if cut.(e) then begin
        (* the two sides of the scissors cut: clockwise boundary on one end
           pairs with counterclockwise boundary on the other *)
        edges := (start_copy.(d), end_copy.(d')) :: !edges;
        edges := (end_copy.(d), start_copy.(d')) :: !edges
      end
      else edges := (dart_copy.(d), dart_copy.(d')) :: !edges);
  (Graph.of_edges !copy_count !edges, proj)

let planarize emb tree =
  let g = emb.graph in
  let gens = tree_cotree emb tree in
  let cut = Array.make (Graph.m g) false in
  List.iter
    (fun e -> List.iter (fun ce -> cut.(ce) <- true) (induced_cycle_edges tree e))
    gens;
  let pg, proj = cut_graph emb ~cut in
  (pg, proj, List.length gens)
