module Graph = Graphlib.Graph

type result = {
  owner : int array;
  dist : int array;
  stats : Network.stats;
}

type state = { owner : int; dist : int; announced : bool }

let voronoi ?max_rounds ?trace ?faults g ~seeds =
  Obs.Span.with_
    ~attrs:
      [
        ("n", Obs.Sink.Int (Graph.n g));
        ("seeds", Obs.Sink.Int (Array.length seeds));
      ]
    "congest.partition.voronoi"
  @@ fun () ->
  let seed_index = Hashtbl.create (Array.length seeds) in
  Array.iteri (fun i s -> if not (Hashtbl.mem seed_index s) then Hashtbl.add seed_index s i) seeds;
  let buf = [| 0; 0 |] in
  let algo =
    {
      Network.init =
        (fun _ v ->
          match Hashtbl.find_opt seed_index v with
          | Some i -> { owner = i; dist = 0; announced = false }
          | None -> { owner = -1; dist = -1; announced = false });
      step =
        (fun ctx st ->
          (* adopt the smallest (distance, owner) announcement *)
          let st = ref st in
          for i = 0 to Network.inbox_size ctx - 1 do
            if Network.inbox_words ctx i = 2 then begin
              let o = Network.inbox_word ctx i 0 in
              let d = Network.inbox_word ctx i 1 in
              let cur = !st in
              if
                cur.dist < 0 || d + 1 < cur.dist
                || (d + 1 = cur.dist && o < cur.owner)
              then st := { owner = o; dist = d + 1; announced = false }
            end
          done;
          let st = !st in
          if st.dist >= 0 && not st.announced then begin
            buf.(0) <- st.owner;
            buf.(1) <- st.dist;
            Network.send_all ctx buf;
            { st with announced = true }
          end
          else st);
      finished = (fun st -> st.announced);
    }
  in
  let states, stats = Network.run ?max_rounds ?trace ?faults g algo in
  {
    owner = Array.map (fun st -> st.owner) states;
    dist = Array.map (fun st -> st.dist) states;
    stats;
  }

let to_parts g (result : result) =
  let n = Graph.n g in
  let nseeds = 1 + Array.fold_left max (-1) result.owner in
  let buckets = Array.make (max 1 nseeds) [] in
  for v = n - 1 downto 0 do
    if result.owner.(v) >= 0 then buckets.(result.owner.(v)) <- v :: buckets.(result.owner.(v))
  done;
  Shortcuts.Part.of_list g
    (Array.to_list buckets |> List.filter (function [] -> false | _ :: _ -> true))

let verify g ~seeds (result : result) =
  let reference, dist = Graphlib.Traversal.multi_source_bfs g seeds in
  ignore reference;
  Array.for_all
    (fun v -> result.dist.(v) = dist.(v) && (result.dist.(v) < 0 || result.owner.(v) >= 0))
    (Array.init (Graph.n g) (fun i -> i))
