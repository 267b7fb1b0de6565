module Graph = Graphlib.Graph

type t = { bags : int array array; parent : int array }

let width t = Array.fold_left (fun acc b -> max acc (Array.length b - 1)) (-1) t.bags
let nbags t = Array.length t.bags

let root t =
  let r = ref (-1) in
  Array.iteri (fun i p -> if p < 0 then r := i) t.parent;
  !r

let check g t =
  let n = Graph.n g in
  let nb = Array.length t.bags in
  Obs.Span.with_ ~attrs:[ ("bags", Obs.Sink.Int nb) ] "tree_decomposition.check"
  @@ fun () ->
  let fail msg = Error msg in
  if Array.length t.parent <> nb then fail "parent array size mismatch"
  else begin
    (* the parent pointers form a single rooted tree *)
    let roots = Array.to_list t.parent |> List.filter (fun p -> p < 0) in
    if List.length roots <> 1 && nb > 0 then fail "decomposition tree must have one root"
    else begin
      let covered = Array.make n false in
      Array.iter (fun b -> Array.iter (fun v -> covered.(v) <- true) b) t.bags;
      if Array.exists not covered then fail "property (i): some vertex in no bag"
      else begin
        (* property (iii): each edge inside some bag *)
        let in_bag = Array.map (fun b ->
            let s = Hashtbl.create (Array.length b) in
            Array.iter (fun v -> Hashtbl.replace s v ()) b;
            s)
            t.bags
        in
        let edge_ok =
          Graph.fold_edges g ~init:true ~f:(fun acc _ u v ->
              acc
              && Array.exists (fun s -> Hashtbl.mem s u && Hashtbl.mem s v) in_bag)
        in
        if not edge_ok then fail "property (iii): some edge not covered by a bag"
        else begin
          (* property (ii): bags containing v are connected in the tree.
             Count, for each vertex, (#bags containing v) minus (#tree edges
             whose both endpoints contain v); connectedness <=> the result is
             exactly 1 for every vertex. *)
          let cnt = Array.make n 0 in
          Array.iter (fun b -> Array.iter (fun v -> cnt.(v) <- cnt.(v) + 1) b) t.bags;
          Array.iteri
            (fun i p ->
              if p >= 0 then
                Array.iter
                  (fun v -> if Hashtbl.mem in_bag.(p) v then cnt.(v) <- cnt.(v) - 1)
                  t.bags.(i))
            t.parent;
          if Array.exists (fun c -> c <> 1) cnt then
            fail "property (ii): bags of some vertex not connected"
          else Ok ()
        end
      end
    end
  end

let of_elimination_order g order =
  let n = Graph.n g in
  if Array.length order <> n then invalid_arg "of_elimination_order: bad order";
  Obs.Span.with_ ~attrs:[ ("n", Obs.Sink.Int n) ] "tree_decomposition.build"
  @@ fun () ->
  let pos = Array.make n 0 in
  Array.iteri (fun i v -> pos.(v) <- i) order;
  (* simulate elimination with fill-in, via adjacency sets *)
  let adj = Array.init n (fun v ->
      let s = Hashtbl.create 8 in
      Graph.iter_adj g v (fun u _ -> Hashtbl.replace s u ());
      s)
  in
  let bags = Array.make n [||] in
  for i = 0 to n - 1 do
    let v = order.(i) in
    let later =
      Hashtbl.fold (fun u () acc -> if pos.(u) > i then u :: acc else acc) adj.(v) []
    in
    bags.(i) <- Array.of_list (v :: later);
    Array.sort Int.compare bags.(i);
    (* fill in among later neighbors *)
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            if a <> b && not (Hashtbl.mem adj.(a) b) then begin
              Hashtbl.replace adj.(a) b ();
              Hashtbl.replace adj.(b) a ()
            end)
          later)
      later
  done;
  (* parent of bag i: the bag index (elimination position) of the earliest
     eliminated vertex among the later-neighbors *)
  let parent = Array.make n (-1) in
  for i = 0 to n - 1 do
    let v = order.(i) in
    let best = ref max_int in
    Array.iter (fun u -> if u <> v && pos.(u) > i && pos.(u) < !best then best := pos.(u)) bags.(i);
    if !best < max_int then parent.(i) <- !best
  done;
  (* multiple roots can appear if the graph is small; attach extras to the last bag *)
  let roots = ref [] in
  Array.iteri (fun i p -> if p < 0 then roots := i :: !roots) parent;
  (match !roots with
  | [] | [ _ ] -> ()
  | last :: rest -> List.iter (fun r -> parent.(r) <- last) rest);
  { bags; parent }
