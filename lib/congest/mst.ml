module Graph = Graphlib.Graph
module Spanning = Graphlib.Spanning
module Union_find = Graphlib.Union_find
module Part = Shortcuts.Part
module Sc = Shortcuts.Shortcut

type constructor = Spanning.tree -> Part.t -> Sc.t

let shortcut_constructor tree parts = Shortcuts.Generic.construct tree parts
let no_shortcut_constructor tree parts = Sc.empty tree parts

type report = {
  phases : int;
  rounds : int;
  messages : int;  (* total simulated messages across all aggregations *)
  mst_edges : int list;
  mst_weight : float;
  phase_rounds : int list;
}

let fragments_of uf g =
  let n = Graph.n g in
  let buckets = Hashtbl.create 16 in
  for v = n - 1 downto 0 do
    let r = Union_find.find uf v in
    Hashtbl.replace buckets r (v :: Option.value (Hashtbl.find_opt buckets r) ~default:[])
  done;
  Part.of_list g (Hashtbl.fold (fun _ l acc -> l :: acc) buckets [])

(* minimum-weight outgoing edge values per vertex, for the current
   fragments, in the (weight, edge id) order of [Aggregate.lt] *)
let mwoe_values g w uf =
  Array.init (Graph.n g) (fun v ->
      let bw = ref 0.0 and be = ref (-1) in
      for i = Graph.adj_offset g v to Graph.adj_offset g (v + 1) - 1 do
        let e = Graph.adj_eid g i in
        if
          (not (Union_find.same uf v (Graph.adj_dst g i)))
          && (!be < 0 || Aggregate.lt w.(e) e !bw !be)
        then begin
          bw := w.(e);
          be := e
        end
      done;
      if !be < 0 then None else Some (!bw, !be))

let merge_phase g w uf mins parts mst_edges =
  (* each fragment adopts the minimum (weight, edge) its members agreed on *)
  let nparts = Part.count parts in
  let chosen = Array.make nparts None in
  Array.iteri
    (fun v m ->
      let p = parts.Part.part_of.(v) in
      if p >= 0 then
        match (m, chosen.(p)) with
        | Some (k, d), Some (k', d') when not (Aggregate.lt k d k' d') -> ()
        | Some x, _ -> chosen.(p) <- Some x
        | None, _ -> ())
    mins;
  Array.iter
    (fun c ->
      match c with
      | Some (_, e) ->
          let u, v = Graph.edge g e in
          if Union_find.union uf u v then mst_edges := e :: !mst_edges
      | None -> ())
    chosen;
  ignore w

let boruvka ?(overhead = 2) ?(max_rounds_per_phase = 2_000_000) ?trace ?faults
    ?(strict = true) ~constructor g w =
  Obs.Span.with_
    ~attrs:[ ("n", Obs.Sink.Int (Graph.n g)) ]
    "congest.mst.boruvka"
  @@ fun () ->
  let n = Graph.n g in
  let uf = Union_find.create n in
  let mst_edges = ref [] in
  let rounds = ref 0 in
  let messages = ref 0 in
  let phase_rounds = ref [] in
  let phases = ref 0 in
  let tree = Spanning.bfs_tree g 0 in
  let progress = ref true in
  while Union_find.count uf > 1 && !progress do
    incr phases;
    if !phases > 2 * n then failwith "Mst.boruvka: no progress";
    let parts = fragments_of uf g in
    let sc = constructor tree parts in
    let values = mwoe_values g w uf in
    let result =
      Aggregate.minimum ~max_rounds:max_rounds_per_phase ?trace ?faults sc
        ~values
    in
    if strict then begin
      if not result.Aggregate.stats.Network.converged then
        failwith "Mst.boruvka: aggregation did not converge";
      if not (Aggregate.verify sc ~values result) then
        failwith "Mst.boruvka: aggregation produced a wrong minimum"
    end;
    let cost = overhead * result.Aggregate.stats.Network.rounds in
    rounds := !rounds + cost;
    messages := !messages + (overhead * result.Aggregate.stats.Network.messages);
    phase_rounds := cost :: !phase_rounds;
    let before = Union_find.count uf in
    merge_phase g w uf result.Aggregate.mins parts mst_edges;
    (* under faults a phase can lose every candidate; a best-effort run
       stops instead of spinning (the partial forest is the degraded
       answer), a strict run cannot get here *)
    progress := Union_find.count uf < before
  done;
  let mst_edges = !mst_edges in
  {
    phases = !phases;
    rounds = !rounds;
    messages = !messages;
    mst_edges;
    mst_weight = Spanning.total_weight w mst_edges;
    phase_rounds = List.rev !phase_rounds;
  }

let boruvka_full ?(max_rounds_per_phase = 2_000_000) ?trace ?faults
    ?(strict = true) ~constructor g w =
  Obs.Span.with_
    ~attrs:[ ("n", Obs.Sink.Int (Graph.n g)) ]
    "congest.mst.boruvka_full"
  @@ fun () ->
  let n = Graph.n g in
  let uf = Union_find.create n in
  let mst_edges = ref [] in
  let rounds = ref 0 in
  let messages = ref 0 in
  let phase_rounds = ref [] in
  let phases = ref 0 in
  let tree = Spanning.bfs_tree g 0 in
  let progress = ref true in
  while Union_find.count uf > 1 && !progress do
    incr phases;
    if !phases > 2 * n then failwith "Mst.boruvka_full: no progress";
    (* (a) MWOE aggregation on the current fragments *)
    let parts = fragments_of uf g in
    let sc = constructor tree parts in
    let values = mwoe_values g w uf in
    let result =
      Aggregate.minimum ~max_rounds:max_rounds_per_phase ?trace ?faults sc
        ~values
    in
    if strict && not (Aggregate.verify sc ~values result) then
      failwith "Mst.boruvka_full: MWOE aggregation wrong";
    let before = Union_find.count uf in
    merge_phase g w uf result.Aggregate.mins parts mst_edges;
    progress := Union_find.count uf < before;
    (* (b) fragment renaming: every member of each *merged* fragment learns
       the new leader (minimum vertex id) by a second aggregation, over the
       new partition with its own shortcut *)
    let parts' = fragments_of uf g in
    let sc' = constructor tree parts' in
    let id_values = Array.init n (fun v -> Some (float_of_int v, v)) in
    let rename =
      Aggregate.minimum ~max_rounds:max_rounds_per_phase ?trace ?faults sc'
        ~values:id_values
    in
    if strict && not (Aggregate.verify sc' ~values:id_values rename) then
      failwith "Mst.boruvka_full: rename aggregation wrong";
    let cost =
      result.Aggregate.stats.Network.rounds + rename.Aggregate.stats.Network.rounds
    in
    rounds := !rounds + cost;
    messages :=
      !messages + result.Aggregate.stats.Network.messages
      + rename.Aggregate.stats.Network.messages;
    phase_rounds := cost :: !phase_rounds
  done;
  let mst_edges = !mst_edges in
  {
    phases = !phases;
    rounds = !rounds;
    messages = !messages;
    mst_edges;
    mst_weight = Spanning.total_weight w mst_edges;
    phase_rounds = List.rev !phase_rounds;
  }

let pipelined g w =
  Obs.Span.with_
    ~attrs:[ ("n", Obs.Sink.Int (Graph.n g)) ]
    "congest.mst.pipelined"
  @@ fun () ->
  let n = Graph.n g in
  let uf = Union_find.create n in
  let mst_edges = ref [] in
  let rounds = ref 0 in
  let messages = ref 0 in
  let phase_rounds = ref [] in
  let phases = ref 0 in
  let tree = Spanning.bfs_tree g 0 in
  let depth = Spanning.height tree in
  let sqrt_n = int_of_float (ceil (sqrt (float_of_int n))) in
  let min_fragment_size () =
    let sizes = Hashtbl.create 16 in
    for v = 0 to n - 1 do
      let r = Union_find.find uf v in
      Hashtbl.replace sizes r (1 + Option.value (Hashtbl.find_opt sizes r) ~default:0)
    done;
    Hashtbl.fold (fun _ s acc -> min s acc) sizes max_int
  in
  (* stage 1: flooding Boruvka until every fragment has >= sqrt n vertices *)
  while Union_find.count uf > 1 && min_fragment_size () < sqrt_n do
    incr phases;
    let parts = fragments_of uf g in
    let sc = Sc.empty tree parts in
    let values = mwoe_values g w uf in
    let result = Aggregate.minimum sc ~values in
    let cost = 2 * result.Aggregate.stats.Network.rounds in
    rounds := !rounds + cost;
    messages := !messages + (2 * result.Aggregate.stats.Network.messages);
    phase_rounds := cost :: !phase_rounds;
    merge_phase g w uf result.Aggregate.mins parts mst_edges
  done;
  (* stage 2: pipelined convergecast over the BFS tree; each round of merging
     ships one candidate edge per fragment to the root: depth + #fragments
     rounds, the exact pipelining bound *)
  while Union_find.count uf > 1 do
    incr phases;
    let parts = fragments_of uf g in
    let nf = Part.count parts in
    let cost = depth + nf in
    rounds := !rounds + cost;
    messages := !messages + ((depth + 1) * nf);
    phase_rounds := cost :: !phase_rounds;
    let values = mwoe_values g w uf in
    (* the root computes every fragment's MWOE exactly *)
    let mins = Aggregate.true_minimum parts ~values in
    merge_phase g w uf mins parts mst_edges
  done;
  let mst_edges = !mst_edges in
  {
    phases = !phases;
    rounds = !rounds;
    messages = !messages;
    mst_edges;
    mst_weight = Spanning.total_weight w mst_edges;
    phase_rounds = List.rev !phase_rounds;
  }

let check g w report =
  let n = Graph.n g in
  if List.length report.mst_edges <> n - 1 then Error "not n-1 edges"
  else begin
    let uf = Union_find.create n in
    let ok =
      List.for_all
        (fun e ->
          let u, v = Graph.edge g e in
          Union_find.union uf u v)
        report.mst_edges
    in
    if not ok then Error "reported edges contain a cycle"
    else begin
      let reference = Spanning.total_weight w (Spanning.kruskal g w) in
      if abs_float (reference -. report.mst_weight) > 1e-9 then
        Error
          (Printf.sprintf "weight %.9f differs from Kruskal %.9f" report.mst_weight
             reference)
      else Ok ()
    end
  end
