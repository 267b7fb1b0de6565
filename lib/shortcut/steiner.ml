module Graph = Graphlib.Graph
module Spanning = Graphlib.Spanning

type t = {
  edges : int list array;
  load : (int, int) Hashtbl.t;
}

let c_computes = Obs.Metrics.counter "steiner.computes"
let c_loaded_edges = Obs.Metrics.counter "steiner.loaded_edges"

let compute_sets tree nparts membership totals =
  (* membership: vertex -> part ids containing it (usually 0 or 1) *)
  let g = tree.Spanning.graph in
  let n = Graph.n g in
  let edges = Array.make nparts [] in
  let load = Hashtbl.create 256 in
  (* per-vertex count tables, merged bottom-up small-to-large *)
  let tbl : (int, int) Hashtbl.t option array = Array.make n None in
  let get v =
    match tbl.(v) with
    | Some t -> t
    | None ->
        let t = Hashtbl.create 4 in
        tbl.(v) <- Some t;
        t
  in
  for i = n - 1 downto 0 do
    let v = tree.Spanning.order.(i) in
    let t = get v in
    List.iter
      (fun p -> Hashtbl.replace t p (1 + Option.value (Hashtbl.find_opt t p) ~default:0))
      membership.(v);
    (* decide the edge above v *)
    if v <> tree.Spanning.root then begin
      let e = tree.Spanning.parent_edge.(v) in
      Hashtbl.iter
        (fun p c ->
          if c > 0 && c < totals.(p) then begin
            edges.(p) <- e :: edges.(p);
            Hashtbl.replace load e (1 + Option.value (Hashtbl.find_opt load e) ~default:0)
          end)
        t;
      (* merge into parent, small-to-large *)
      let parent = tree.Spanning.parent.(v) in
      let pt = get parent in
      if Hashtbl.length pt >= Hashtbl.length t then begin
        Hashtbl.iter
          (fun p c ->
            Hashtbl.replace pt p (c + Option.value (Hashtbl.find_opt pt p) ~default:0))
          t;
        tbl.(v) <- None
      end
      else begin
        Hashtbl.iter
          (fun p c ->
            Hashtbl.replace t p (c + Option.value (Hashtbl.find_opt t p) ~default:0))
          pt;
        tbl.(parent) <- Some t;
        tbl.(v) <- None
      end
    end
  done;
  { edges; load }

let traced ~nparts body =
  Obs.Span.with_ ~attrs:[ ("nparts", Obs.Sink.Int nparts) ] "steiner.compute"
    (fun () ->
      let s = body () in
      Obs.Metrics.incr c_computes;
      Obs.Metrics.add c_loaded_edges (Hashtbl.length s.load);
      s)

(* memoized on (tree, parts); the forest is shared and never mutated
   after construction (DESIGN.md section 10) *)
let m_compute : (Spanning.tree * Part.t, t) Memo.t =
  Memo.create ~name:"steiner.compute" ~fp:(fun (tree, parts) ->
      Memo.Fingerprint.(
        empty
        |> int64 (Spanning.fingerprint tree)
        |> int64 (Part.fingerprint parts)))

let compute tree parts =
  Memo.find_or_compute m_compute (tree, parts) @@ fun () ->
  traced ~nparts:(Part.count parts) (fun () ->
      let n = Graph.n tree.Spanning.graph in
      let membership = Array.make n [] in
      Array.iteri
        (fun i p -> Array.iter (fun v -> membership.(v) <- i :: membership.(v)) p)
        parts.Part.parts;
      let totals = Array.map Array.length parts.Part.parts in
      compute_sets tree (Part.count parts) membership totals)

let compute_restricted tree parts ~members =
  let nparts = Part.count parts in
  if Array.length members <> nparts then
    invalid_arg "Steiner.compute_restricted: size mismatch";
  traced ~nparts (fun () ->
      let n = Graph.n tree.Spanning.graph in
      let membership = Array.make n [] in
      let totals = Array.make nparts 0 in
      Array.iteri
        (fun i vs ->
          totals.(i) <- List.length vs;
          List.iter (fun v -> membership.(v) <- i :: membership.(v)) vs)
        members;
      compute_sets tree nparts membership totals)

let max_load t = Hashtbl.fold (fun _ c acc -> max c acc) t.load 0
