type tree = {
  graph : Graph.t;
  root : int;
  parent : int array;
  parent_edge : int array;
  depth : int array;
  order : int array;
}

(* BFS trees are pure functions of (graph, root): memoized, and shared —
   no consumer mutates a tree's arrays (DESIGN.md section 10) *)
let m_bfs : (Graph.t * int, tree) Memo.t =
  Memo.create ~name:"spanning.bfs_tree" ~fp:(fun (g, root) ->
      Memo.Fingerprint.(empty |> int64 (Graph.fingerprint g) |> int root))

let bfs_tree g root =
  Memo.find_or_compute m_bfs (g, root) @@ fun () ->
  let n = Graph.n g in
  let parent = Array.make n (-1) in
  let parent_edge = Array.make n (-1) in
  let depth = Array.make n (-1) in
  let order = Array.make n (-1) in
  (* [order] doubles as the FIFO worklist: for BFS, push order equals pop
     order, so the finished array is exactly the old Queue's visit order *)
  let head = ref 0 and count = ref 1 in
  depth.(root) <- 0;
  order.(0) <- root;
  while !head < !count do
    let v = order.(!head) in
    incr head;
    Graph.iter_adj g v (fun w e ->
        if depth.(w) < 0 then begin
          depth.(w) <- depth.(v) + 1;
          parent.(w) <- v;
          parent_edge.(w) <- e;
          order.(!count) <- w;
          incr count
        end)
  done;
  if !count <> n then invalid_arg "Spanning.bfs_tree: graph is not connected";
  { graph = g; root; parent; parent_edge; depth; order }

(* over the host graph, root and parent pointers: pins any spanning tree,
   not just BFS ones, so derived-artifact cache keys stay sound for trees
   built by other means *)
let fingerprint t =
  Memo.Fingerprint.(
    empty |> string "tree"
    |> int64 (Graph.fingerprint t.graph)
    |> int t.root |> ints t.parent)

let height t = Array.fold_left max 0 t.depth

let is_tree_edge t e =
  let u, v = Graph.edge t.graph e in
  t.parent_edge.(u) = e || t.parent_edge.(v) = e

let tree_edges t =
  let acc = ref [] in
  Array.iteri (fun v e -> if v <> t.root && e >= 0 then acc := e :: !acc) t.parent_edge;
  !acc

let children t =
  let n = Graph.n t.graph in
  let cnt = Array.make n 0 in
  Array.iteri (fun v p -> if v <> t.root && p >= 0 then cnt.(p) <- cnt.(p) + 1) t.parent;
  let out = Array.init n (fun v -> Array.make cnt.(v) (-1)) in
  let fill = Array.make n 0 in
  Array.iteri
    (fun v p ->
      if v <> t.root && p >= 0 then begin
        out.(p).(fill.(p)) <- v;
        fill.(p) <- fill.(p) + 1
      end)
    t.parent;
  out

let subtree_sizes t =
  let n = Graph.n t.graph in
  let sz = Array.make n 1 in
  (* bottom-up over the BFS order *)
  for i = n - 1 downto 0 do
    let v = t.order.(i) in
    if v <> t.root && t.parent.(v) >= 0 then
      sz.(t.parent.(v)) <- sz.(t.parent.(v)) + sz.(v)
  done;
  sz

let path_to_root t v =
  let rec loop v acc =
    if v = t.root then List.rev (v :: acc) else loop t.parent.(v) (v :: acc)
  in
  loop v []

let check t =
  let g = t.graph in
  let n = Graph.n g in
  let ok = ref (Ok ()) in
  let fail msg = match !ok with Ok () -> ok := Error msg | Error _ -> () in
  if t.root < 0 || t.root >= n then fail "root out of range";
  if t.parent.(t.root) <> -1 then fail "root has a parent";
  for v = 0 to n - 1 do
    if v <> t.root then begin
      let p = t.parent.(v) and e = t.parent_edge.(v) in
      if p < 0 || e < 0 then fail "non-root vertex without parent"
      else begin
        let a, b = Graph.edge g e in
        if not ((a = v && b = p) || (a = p && b = v)) then
          fail "parent edge does not join vertex to parent";
        if t.depth.(v) <> t.depth.(p) + 1 then fail "inconsistent depth"
      end
    end
  done;
  (* acyclicity / reachability: every vertex reaches the root in <= n steps *)
  for v = 0 to n - 1 do
    let rec climb u steps =
      if steps > n then fail "parent pointers contain a cycle"
      else if u <> t.root then climb t.parent.(u) (steps + 1)
    in
    climb v 0
  done;
  !ok

(* Both MST strategies order edges by (weight, edge id): ties break on
   the lower edge id.  With that total order the minimum spanning forest
   is unique, so Kruskal and Boruvka return the SAME edge list (ascending
   in the order), and swapping strategies can never change an experiment's
   output. *)

module Ba = Bigarray.Array1

(* The entry check of both strategies, one O(m) pass.  A NaN has no place
   in the (weight, id) order, and the loops below read weights without
   bounds checks, so a short array is refused here.  Returns whether some
   weight is negative, which routes [sort_by_weight] to its fallback. *)
let check_weights fn w m =
  let len = Array.length w in
  if len < m then
    invalid_arg (Printf.sprintf "Spanning.%s: %d weights for %d edges" fn len m);
  let negative = ref false in
  for e = 0 to m - 1 do
    let x = Array.unsafe_get w e in
    if Float.is_nan x then
      invalid_arg (Printf.sprintf "Spanning.%s: NaN weight on edge %d" fn e);
    if x < 0.0 then negative := true
  done;
  !negative

(* Sorts the edge ids [ids.{0 .. len-1}], given in ascending id order,
   into ascending (weight, id) order.  Weights >= 0 map through
   [Sort.float_key] into unsigned-63 radix order (both zeros get key 0),
   and the radix sort's stability over the ascending input IS the id
   tie-break.  Negative weights fall back to a monomorphic comparison
   sort with the same order. *)
let sort_by_weight ~negative w (ids : Sort.int_bigarray) len =
  if negative then begin
    let a = Array.init len (fun i -> Ba.unsafe_get ids i) in
    Array.sort
      (fun a b ->
        let c = Float.compare w.(a) w.(b) in
        if c <> 0 then c else Int.compare a b)
      a;
    Array.iteri (fun i e -> Ba.unsafe_set ids i e) a
  end
  else begin
    let keys = Sort.ints (max 1 len) in
    for i = 0 to len - 1 do
      Ba.unsafe_set keys i (Sort.float_key (Array.unsafe_get w (Ba.unsafe_get ids i)))
    done;
    Sort.sort_pairs ~len keys ids
  end

let list_of_prefix (ids : Sort.int_bigarray) len =
  let acc = ref [] in
  for i = len - 1 downto 0 do
    acc := Ba.unsafe_get ids i :: !acc
  done;
  !acc

let kruskal g w =
  let m = Graph.m g in
  let negative = check_weights "kruskal" w m in
  let ids = Sort.ints (max 1 m) in
  for e = 0 to m - 1 do
    Ba.unsafe_set ids e e
  done;
  sort_by_weight ~negative w ids m;
  let uf = Union_find.create (Graph.n g) in
  (* accepted edges are compacted into the prefix of [ids] *)
  let accepted = ref 0 in
  for i = 0 to m - 1 do
    let e = Ba.unsafe_get ids i in
    if Union_find.union uf (Graph.edge_u g e) (Graph.edge_v g e) then begin
      Ba.unsafe_set ids !accepted e;
      incr accepted
    end
  done;
  list_of_prefix ids !accepted

(* Boruvka over compact component ids.  The k live components are
   numbered 0 .. k-1 and [label] maps every vertex to its component's
   number, so a round's scan reads two labels per live edge and calls no
   [find]: it drops the edges inside one component, compacts the live
   list in place, and keeps each component's minimum (weight, id) edge in
   k-sized arrays.  A private union-find over the k numbers then joins
   the <= k chosen edges and hands out the next round's numbers.  A
   component left without a live edge is final and drops out of the
   numbering; every other one merges, so k at least halves per round.
   The forest is marked in a byte mask, read back in ascending id order
   and radix-sorted by weight ([sort_by_weight]). *)
let boruvka g w =
  let n = Graph.n g and m = Graph.m g in
  let negative = check_weights "boruvka" w m in
  let label = Array.init n (fun v -> v) in
  let live = Array.init m (fun e -> e) in
  let live_len = ref m in
  let k = ref n in
  let best = Array.make n max_int and best_w = Array.make n infinity in
  let parent = Array.make n 0 in
  let in_forest = Bytes.make m '\000' in
  let forest_size = ref 0 in
  (* path halving; roots are the least number of their set *)
  let find c =
    let c = ref c in
    while parent.(!c) <> !c do
      let gp = parent.(parent.(!c)) in
      parent.(!c) <- gp;
      c := gp
    done;
    !c
  in
  while !live_len > 0 && !k > 1 do
    let k0 = !k in
    Array.fill best 0 k0 max_int;
    Array.fill best_w 0 k0 infinity;
    let kept = ref 0 in
    for i = 0 to !live_len - 1 do
      let e = Array.unsafe_get live i in
      let cu = Array.unsafe_get label (Graph.edge_u g e)
      and cv = Array.unsafe_get label (Graph.edge_v g e) in
      if cu <> cv then begin
        Array.unsafe_set live !kept e;
        incr kept;
        let we = Array.unsafe_get w e in
        let bu = Array.unsafe_get best_w cu in
        if we < bu || (we = bu && e < Array.unsafe_get best cu) then begin
          Array.unsafe_set best_w cu we;
          Array.unsafe_set best cu e
        end;
        let bv = Array.unsafe_get best_w cv in
        if we < bv || (we = bv && e < Array.unsafe_get best cv) then begin
          Array.unsafe_set best_w cv we;
          Array.unsafe_set best cv e
        end
      end
    done;
    live_len := !kept;
    for c = 0 to k0 - 1 do
      parent.(c) <- c
    done;
    for c = 0 to k0 - 1 do
      let e = best.(c) in
      if e < max_int then begin
        (* a mutual-minimum edge is chosen by both of its components; the
           second time round they are already joined *)
        let a = find label.(Graph.edge_u g e) and b = find label.(Graph.edge_v g e) in
        if a <> b then begin
          if a < b then parent.(b) <- a else parent.(a) <- b;
          Bytes.unsafe_set in_forest e '\001';
          incr forest_size
        end
      end
    done;
    (* renumber in ascending order of each merged set's least number, a
       root before the rest of its set; [best] is spent and becomes the
       map from old numbers to new ones, -1 for final components *)
    let k1 = ref 0 in
    for c = 0 to k0 - 1 do
      if best.(c) = max_int then best.(c) <- -1
      else begin
        let r = find c in
        if r = c then begin
          best.(c) <- !k1;
          incr k1
        end
        else best.(c) <- best.(r)
      end
    done;
    for v = 0 to n - 1 do
      let c = label.(v) in
      if c >= 0 then label.(v) <- best.(c)
    done;
    k := !k1
  done;
  let ids = Sort.ints (max 1 !forest_size) in
  let j = ref 0 in
  for e = 0 to m - 1 do
    if Bytes.unsafe_get in_forest e <> '\000' then begin
      Ba.unsafe_set ids !j e;
      incr j
    end
  done;
  sort_by_weight ~negative w ids !forest_size;
  list_of_prefix ids !forest_size

type strategy = Kruskal | Boruvka

let mst ?(strategy = Kruskal) g w =
  match strategy with Kruskal -> kruskal g w | Boruvka -> boruvka g w

let prim g w =
  let n = Graph.n g in
  if n = 0 then []
  else begin
    let in_tree = Array.make n false in
    let q = Pqueue.create () in
    let acc = ref [] in
    let add v =
      in_tree.(v) <- true;
      Graph.iter_adj g v (fun u e -> if not in_tree.(u) then Pqueue.push q w.(e) (u, e))
    in
    add 0;
    let rec loop () =
      match Pqueue.pop q with
      | None -> ()
      | Some (_, (v, e)) ->
          if not in_tree.(v) then begin
            acc := e :: !acc;
            add v
          end;
          loop ()
    in
    loop ();
    List.rev !acc
  end

let total_weight w ids = List.fold_left (fun acc e -> acc +. w.(e)) 0.0 ids
