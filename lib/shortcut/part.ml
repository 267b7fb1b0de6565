module Graph = Graphlib.Graph
module Traversal = Graphlib.Traversal
module Union_find = Graphlib.Union_find

type t = {
  parts : int array array;
  part_of : int array;
}

let count t = Array.length t.parts
let size t i = Array.length t.parts.(i)

(* over every part's vertex array in order: pins part indexing AND the
   within-part vertex order (assignment tie-breaking reads both) *)
let fingerprint t =
  let h = ref Memo.Fingerprint.(empty |> string "part" |> int (count t)) in
  Array.iter (fun p -> h := Memo.Fingerprint.ints p !h) t.parts;
  !h

let build n parts_list =
  let parts = Array.of_list (List.map Array.of_list parts_list) in
  let part_of = Array.make n (-1) in
  Array.iteri
    (fun i p ->
      Array.iter
        (fun v ->
          if part_of.(v) >= 0 then invalid_arg "Part: overlapping parts";
          part_of.(v) <- i)
        p)
    parts;
  { parts; part_of }

(* the last error found wins.  [seen] doubles as the member stamp of the
   part being checked, so G[P_i] connectivity is one traversal per part
   over stamps and a shared stack: O(n + m) for the whole check *)
let check g t =
  let n = Graph.n g in
  if Array.length t.part_of <> n then Error "part_of size mismatch"
  else begin
    let seen = Array.make n (-1) in
    let visited = Array.make n (-1) in
    let stack = Array.make n 0 in
    let ok = ref (Ok ()) in
    Array.iteri
      (fun i p ->
        if Array.length p = 0 then ok := Error "empty part";
        Array.iter
          (fun v ->
            if seen.(v) >= 0 then ok := Error "overlapping parts";
            seen.(v) <- i;
            if t.part_of.(v) <> i then ok := Error "part_of inconsistent")
          p;
        if Array.length p > 0 then begin
          visited.(p.(0)) <- i;
          stack.(0) <- p.(0);
          let top = ref 1 and reached = ref 1 in
          while !top > 0 do
            decr top;
            let v = stack.(!top) in
            for j = Graph.adj_offset g v to Graph.adj_offset g (v + 1) - 1 do
              let u = Graph.adj_dst g j in
              if seen.(u) = i && visited.(u) <> i then begin
                visited.(u) <- i;
                stack.(!top) <- u;
                incr top;
                incr reached
              end
            done
          done;
          (* a vertex listed twice is reached once but counted twice *)
          if !reached <> Array.length p then ok := Error "disconnected part"
        end)
      t.parts;
    !ok
  end

let of_list g parts_list =
  let t = build (Graph.n g) parts_list in
  match check g t with Ok () -> t | Error msg -> invalid_arg ("Part.of_list: " ^ msg)

let max_part_diameter g t =
  let n = Graph.n g in
  let allowed = Array.make n false in
  let best = ref 0 in
  Array.iter
    (fun p ->
      Array.iter (fun v -> allowed.(v) <- true) p;
      (* double sweep inside the part *)
      let d0 = Traversal.restricted_bfs g ~allowed p.(0) in
      let far = ref p.(0) and fd = ref 0 in
      Array.iter (fun v -> if d0.(v) > !fd then begin fd := d0.(v); far := v end) p;
      let d1 = Traversal.restricted_bfs g ~allowed !far in
      Array.iter (fun v -> if d1.(v) > !best then best := d1.(v)) p;
      Array.iter (fun v -> allowed.(v) <- false) p)
    t.parts;
  !best

let c_partitions = Obs.Metrics.counter "part.partitions_built"

(* the row partition is the one partition a workload re-derives with one
   key (DESIGN.md section 10); Part.t values are immutable after [build],
   so cache sharing is safe *)
let m_grid_rows : (int * int, t) Memo.t =
  Memo.create ~name:"part.grid_rows" ~fp:(fun (w, h) ->
      Memo.Fingerprint.(empty |> int w |> int h))

let partition_span ~kind ~count body =
  Obs.Span.with_
    ~attrs:
      [ ("kind", Obs.Sink.String kind); ("count", Obs.Sink.Int count) ]
    "part.partition"
    (fun () ->
      Obs.Metrics.incr c_partitions;
      body ())

let voronoi ~seed g ~count =
  partition_span ~kind:"voronoi" ~count @@ fun () ->
  let n = Graph.n g in
  let st = Random.State.make [| seed |] in
  let count = min count n in
  (* distinct random seeds *)
  let chosen = Hashtbl.create count in
  while Hashtbl.length chosen < count do
    Hashtbl.replace chosen (Random.State.int st n) ()
  done;
  let srcs = Array.of_seq (Hashtbl.to_seq_keys chosen) in
  let owner, _ = Traversal.multi_source_bfs g srcs in
  let buckets = Array.make count [] in
  for v = n - 1 downto 0 do
    if owner.(v) >= 0 then buckets.(owner.(v)) <- v :: buckets.(owner.(v))
  done;
  build n (Array.to_list buckets |> List.filter (fun l -> l <> []))

let grid_rows w h =
  Memo.find_or_compute m_grid_rows (w, h) @@ fun () ->
  partition_span ~kind:"grid_rows" ~count:h @@ fun () ->
  let rows = List.init h (fun y -> List.init w (fun x -> (y * w) + x)) in
  build (w * h) rows

let boruvka_fragments g w ~level =
  partition_span ~kind:"boruvka_fragments" ~count:level @@ fun () ->
  let n = Graph.n g in
  let uf = Union_find.create n in
  for _ = 1 to level do
    (* one Boruvka phase: each fragment picks its minimum-weight outgoing edge *)
    let best = Hashtbl.create 16 in
    Graph.iter_edges g (fun e u v ->
        let ru = Union_find.find uf u and rv = Union_find.find uf v in
        if ru <> rv then begin
          let upd r =
            match Hashtbl.find_opt best r with
            | Some e' when w.(e') <= w.(e) -> ()
            | _ -> Hashtbl.replace best r e
          in
          upd ru;
          upd rv
        end);
    Hashtbl.iter
      (fun _ e ->
        let u, v = Graph.edge g e in
        ignore (Union_find.union uf u v))
      best
  done;
  let buckets = Hashtbl.create 16 in
  for v = n - 1 downto 0 do
    let r = Union_find.find uf v in
    let cur = Option.value (Hashtbl.find_opt buckets r) ~default:[] in
    Hashtbl.replace buckets r (v :: cur)
  done;
  build n (Hashtbl.fold (fun _ l acc -> l :: acc) buckets [])

let singletons g = build (Graph.n g) (List.init (Graph.n g) (fun v -> [ v ]))

let random_connected ~seed g ~count ~coverage =
  let n = Graph.n g in
  let st = Random.State.make [| seed |] in
  let target = int_of_float (coverage *. float_of_int n) in
  let taken = Array.make n false in
  let parts = ref [] in
  let total = ref 0 in
  let attempts = ref 0 in
  while List.length !parts < count && !total < target && !attempts < 10 * count do
    incr attempts;
    let s = Random.State.int st n in
    if not taken.(s) then begin
      (* random BFS growth of a bounded region *)
      let budget = 1 + Random.State.int st (max 1 (target / count * 2)) in
      let acc = ref [] in
      let q = Queue.create () in
      taken.(s) <- true;
      Queue.push s q;
      let grabbed = ref 0 in
      while (not (Queue.is_empty q)) && !grabbed < budget do
        let v = Queue.pop q in
        acc := v :: !acc;
        incr grabbed;
        Graph.iter_adj g v (fun u _ ->
            if (not taken.(u)) && !grabbed + Queue.length q < budget then begin
              taken.(u) <- true;
              Queue.push u q
            end)
      done;
      (* vertices still in the queue were marked taken; release them *)
      Queue.iter (fun v -> taken.(v) <- false) q;
      total := !total + List.length !acc;
      parts := !acc :: !parts
    end
  done;
  build n !parts
