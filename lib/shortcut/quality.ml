module Graph = Graphlib.Graph
module Spanning = Graphlib.Spanning

type row = {
  label : string;
  n : int;
  m : int;
  diameter : int;
  d_tree : int;
  nparts : int;
  b : int;
  c : int;
  q : int;
  obs_c : int option;
}

let measure ~label ?observed_congestion sc =
  Obs.Span.with_
    ~attrs:[ ("label", Obs.Sink.String label) ]
    "quality.measure"
  @@ fun () ->
  let tree = sc.Shortcut.tree in
  let g = tree.Spanning.graph in
  let b = Shortcut.block_parameter sc in
  let c = Shortcut.congestion sc in
  let d_tree = Spanning.height tree in
  {
    label;
    n = Graph.n g;
    m = Graph.m g;
    diameter = Graphlib.Distance.diameter_double_sweep g;
    d_tree;
    nparts = Part.count sc.Shortcut.parts;
    b;
    c;
    q = (b * d_tree) + c;
    obs_c = observed_congestion;
  }

let header () =
  Printf.sprintf "%-34s %7s %8s %5s %5s %6s %5s %6s %7s %6s" "workload" "n" "m" "D"
    "d_T" "parts" "b" "c" "q" "obs_c"

let to_string r =
  Printf.sprintf "%-34s %7d %8d %5d %5d %6d %5d %6d %7d %6s" r.label r.n r.m r.diameter
    r.d_tree r.nparts r.b r.c r.q
    (match r.obs_c with Some x -> string_of_int x | None -> "-")

let ratio r bound = float_of_int r.q /. bound

let fit_exponent_opt points =
  (* single pass: filter, log-transform, and accumulate all four sums at
     once (left-to-right, so the float sums match the former multi-pass
     folds bit for bit) *)
  let k, sx, sy, sxx, sxy =
    List.fold_left
      (fun ((k, sx, sy, sxx, sxy) as acc) (x, y) ->
        if x > 0.0 && y > 0.0 then
          let lx = log x and ly = log y in
          (k + 1, sx +. lx, sy +. ly, sxx +. (lx *. lx), sxy +. (lx *. ly))
        else acc)
      (0, 0.0, 0.0, 0.0, 0.0) points
  in
  if k < 2 then None
  else
    let kf = float_of_int k in
    Some (((kf *. sxy) -. (sx *. sy)) /. ((kf *. sxx) -. (sx *. sx)))

let fit_exponent points =
  match fit_exponent_opt points with Some e -> e | None -> nan
