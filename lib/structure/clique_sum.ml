module Graph = Graphlib.Graph

type t = {
  graph : Graph.t;
  bags : int array array;
  parent : int array;
  separators : int array array;
  k : int;
}

type shape = Path | Star | Random_tree

(* random greedy clique of size at most [size] in graph [g] *)
let random_clique st g size =
  let n = Graph.n g in
  let v0 = Random.State.int st n in
  let clique = ref [ v0 ] in
  let continue_ = ref true in
  while !continue_ && List.length !clique < size do
    (* candidates adjacent to everything in the clique *)
    let cands = ref [] in
    Graph.iter_adj g (List.hd !clique) (fun u _ ->
        if
          (not (List.mem u !clique))
          && List.for_all (fun c -> c = u || Graph.mem_edge g u c) !clique
        then cands := u :: !cands);
    match !cands with
    | [] -> continue_ := false
    | cs ->
        (* one O(len) conversion, then O(1) indexing; [Array.of_list] keeps
           list order, so the picked element matches what [List.nth] chose *)
        let arr = Array.of_list cs in
        let pick = arr.(Random.State.int st (Array.length arr)) in
        clique := pick :: !clique
  done;
  Array.of_list !clique

let compose ~seed ~k ?(drop_prob = 0.0) ~shape pieces =
  if pieces = [] then invalid_arg "Clique_sum.compose: no pieces";
  Obs.Span.with_
    ~attrs:
      [ ("pieces", Obs.Sink.Int (List.length pieces)); ("k", Obs.Sink.Int k) ]
    "clique_sum.compose"
  @@ fun () ->
  let st = Random.State.make [| seed |] in
  let nb = List.length pieces in
  let pieces = Array.of_list pieces in
  let bag_map = Array.make nb [||] in
  (* host ids *)
  let next_id = ref 0 in
  let edges = ref [] in
  let parent = Array.make nb (-1) in
  let separators = Array.make nb [||] in
  (* place piece 0 *)
  let place_fresh i mapped =
    (* mapped: partial map piece-vertex -> host id (for identified clique) *)
    let g = pieces.(i) in
    let map = Array.make (Graph.n g) (-1) in
    List.iter (fun (pv, hv) -> map.(pv) <- hv) mapped;
    for v = 0 to Graph.n g - 1 do
      if map.(v) < 0 then begin
        map.(v) <- !next_id;
        incr next_id
      end
    done;
    bag_map.(i) <- map;
    let identified = List.map fst mapped in
    Graph.iter_edges g (fun _ u v ->
        let drop =
          List.mem u identified && List.mem v identified
          && Random.State.float st 1.0 < drop_prob
        in
        if not drop then edges := (map.(u), map.(v)) :: !edges)
  in
  place_fresh 0 [];
  for i = 1 to nb - 1 do
    let target =
      match shape with
      | Path -> i - 1
      | Star -> 0
      | Random_tree -> Random.State.int st i
    in
    parent.(i) <- target;
    (* find a clique in the new piece, then one of equal size in the target *)
    let c_new = random_clique st pieces.(i) k in
    let c_tgt = random_clique st pieces.(target) (Array.length c_new) in
    let s = min (Array.length c_new) (Array.length c_tgt) in
    let mapped =
      List.init s (fun j -> (c_new.(j), bag_map.(target).(c_tgt.(j))))
    in
    place_fresh i mapped;
    separators.(i) <- Array.of_list (List.map snd mapped)
  done;
  let graph = Graph.of_edges !next_id !edges in
  let bags =
    Array.map
      (fun map ->
        let b = Array.copy map in
        Array.sort Int.compare b;
        b)
      bag_map
  in
  Array.iter (fun s -> Array.sort Int.compare s) separators;
  { graph; bags; parent; separators; k }

let of_tree_decomposition g td =
  let open Tree_decomposition in
  let nb = nbags td in
  Obs.Span.with_ ~attrs:[ ("bags", Obs.Sink.Int nb) ] "clique_sum.of_td"
  @@ fun () ->
  let separators =
    Array.init nb (fun i ->
        let p = td.parent.(i) in
        if p < 0 then [||]
        else begin
          let ps = Hashtbl.create 8 in
          Array.iter (fun v -> Hashtbl.replace ps v ()) td.bags.(p);
          let inter = Array.to_list td.bags.(i) |> List.filter (Hashtbl.mem ps) in
          Array.of_list inter
        end)
  in
  { graph = g; bags = td.bags; parent = td.parent; separators; k = width td + 1 }

let nbags t = Array.length t.bags

let root t =
  let r = ref (-1) in
  Array.iteri (fun i p -> if p < 0 then r := i) t.parent;
  !r

let depth t =
  let nb = nbags t in
  let d = Array.make nb (-1) in
  let rec dep i = if d.(i) >= 0 then d.(i) else begin
      let v = if t.parent.(i) < 0 then 0 else dep t.parent.(i) + 1 in
      d.(i) <- v;
      v
    end
  in
  let best = ref 0 in
  for i = 0 to nb - 1 do
    best := max !best (dep i)
  done;
  !best

let check t =
  let g = t.graph in
  let n = Graph.n g in
  let nb = nbags t in
  let fail msg = Error msg in
  let bag_sets =
    Array.map
      (fun b ->
        let s = Hashtbl.create (Array.length b) in
        Array.iter (fun v -> Hashtbl.replace s v ()) b;
        s)
      t.bags
  in
  (* (1) bag union covers V *)
  let covered = Array.make n false in
  Array.iter (fun b -> Array.iter (fun v -> covered.(v) <- true) b) t.bags;
  if Array.exists not covered then fail "bags do not cover all vertices"
  else begin
    (* (3) separator = intersection with parent, size <= k *)
    let sep_ok = ref true in
    for i = 0 to nb - 1 do
      let p = t.parent.(i) in
      if p >= 0 then begin
        if Array.length t.separators.(i) > t.k then sep_ok := false;
        let inter =
          Array.to_list t.bags.(i) |> List.filter (Hashtbl.mem bag_sets.(p))
        in
        let sep = Array.to_list t.separators.(i) in
        if List.sort Int.compare inter <> List.sort Int.compare sep then sep_ok := false
      end
    done;
    if not !sep_ok then fail "separator mismatch or oversize"
    else begin
      (* (5) every edge inside some bag *)
      let edge_ok =
        Graph.fold_edges g ~init:true ~f:(fun acc _ u v ->
            acc
            && Array.exists (fun s -> Hashtbl.mem s u && Hashtbl.mem s v) bag_sets)
      in
      if not edge_ok then fail "an edge is covered by no bag"
      else begin
        (* (4) bags containing v form a subtree: count bags minus tree edges
           both of whose bags contain v; must be 1 for each vertex *)
        let cnt = Array.make n 0 in
        Array.iter (fun b -> Array.iter (fun v -> cnt.(v) <- cnt.(v) + 1) b) t.bags;
        for i = 0 to nb - 1 do
          let p = t.parent.(i) in
          if p >= 0 then
            Array.iter
              (fun v -> if Hashtbl.mem bag_sets.(p) v then cnt.(v) <- cnt.(v) - 1)
              t.bags.(i)
        done;
        if Array.exists (fun c -> c <> 1) cnt then
          fail "bags of some vertex are not connected in the decomposition tree"
        else Ok ()
      end
    end
  end
