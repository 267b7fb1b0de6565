module Graph = Graphlib.Graph
module Spanning = Graphlib.Spanning

type policy = Drop_all | Keep_kappa

let c_kappas_tried = Obs.Metrics.counter "generic.kappas_tried"

let default_kappas max_load =
  let rec loop k acc = if k >= max_load then List.rev (max_load :: acc) else loop (2 * k) (k :: acc) in
  if max_load <= 1 then [ 1 ] else loop 1 []

type frontier_point = {
  kappa : int;
  b : int;
  c : int;
  q : int;
}

(* The Keep-κ rule, ranked once per Steiner forest: part i keeps tree edge
   e at threshold kappa iff e carries at most kappa Steiner trees or, under
   Keep_kappa, i ranks among the kappa largest parts using e (larger parts
   lose more from splitting; equal sizes rank the higher part id first). *)
let kept_rule policy steiner parts =
  let load e = Option.value (Hashtbl.find_opt steiner.Steiner.load e) ~default:0 in
  let rank : (int * int, int) Hashtbl.t = Hashtbl.create 256 in
  (match policy with
  | Drop_all -> ()
  | Keep_kappa ->
      let users = Hashtbl.create 256 in
      Array.iteri
        (fun i es ->
          List.iter
            (fun e ->
              if load e > 1 then
                Hashtbl.replace users e
                  (i :: Option.value (Hashtbl.find_opt users e) ~default:[]))
            es)
        steiner.Steiner.edges;
      Hashtbl.iter
        (fun e is ->
          let sorted =
            List.sort (fun a b -> Int.compare (Part.size parts b) (Part.size parts a)) is
          in
          List.iteri (fun r i -> Hashtbl.replace rank (e, i) r) sorted)
        users);
  fun kappa i e ->
    load e <= kappa
    || match Hashtbl.find_opt rank (e, i) with Some r -> r < kappa | None -> false

(* The one kappa-sweep.  Part i is granted [global.(i)] at every threshold
   plus its local Steiner forest pruned by the Keep-κ rule.  Each kappa is
   measured without building a Shortcut.t: blocks with a version-stamped
   array union-find; congestion in closed form when no part has a global
   grant (every edge keeps min(load, kappa) users under Keep_kappa, the
   loads <= kappa under Drop_all), counted per edge otherwise.  Only the
   first kappa of minimum quality pays for Shortcut.make. *)
let sweep ~span policy ~kappas ~global tree parts steiner =
  let g = tree.Spanning.graph in
  let n = Graph.n g in
  let max_load = Steiner.max_load steiner in
  let kappas = match kappas with Some ks -> ks | None -> default_kappas max_load in
  Obs.Metrics.add c_kappas_tried (List.length kappas);
  let height = Spanning.height tree in
  let kept = kept_rule policy steiner parts in
  let global = Array.map (fun l -> Array.of_list (List.sort_uniq Int.compare l)) global in
  let counted = Array.exists (fun a -> Array.length a > 0) global in
  let loads = Hashtbl.fold (fun _ l acc -> l :: acc) steiner.Steiner.load [] in
  let closed_form kappa =
    match policy with
    | Keep_kappa -> min kappa max_load
    | Drop_all -> List.fold_left (fun acc l -> if l <= kappa then max acc l else acc) 0 loads
  in
  (* counted congestion: per-edge global grants, the last part whose grants
     hold each edge, and the kappa-stamped per-edge total *)
  let m = if counted then Graph.m g else 0 in
  let gcount = Array.make m 0 in
  Array.iter (Array.iter (fun e -> gcount.(e) <- gcount.(e) + 1)) global;
  let gmax = Array.fold_left max 0 gcount in
  let owner = Array.make m (-1) in
  let total = Array.make m 0 and total_stamp = Array.make m 0 in
  let uf = Array.make (max 1 n) 0 in
  let uf_stamp = Array.make (max 1 n) 0 in
  let root_stamp = Array.make (max 1 n) 0 in
  let version = ref 0 and kround = ref 0 in
  let rec find v =
    if uf_stamp.(v) <> !version then begin
      uf_stamp.(v) <- !version;
      uf.(v) <- v;
      v
    end
    else if uf.(v) = v then v
    else begin
      let r = find uf.(v) in
      uf.(v) <- r;
      r
    end
  in
  let union e =
    let ru = find (Graph.edge_u g e) and rv = find (Graph.edge_v g e) in
    if ru <> rv then uf.(ru) <- rv
  in
  (* part i's kept local edges at kappa: union them, and return the running
     congestion maximum [c] with the counted ones added *)
  let rec grant kappa i c = function
    | [] -> c
    | e :: rest when not (kept kappa i e) -> grant kappa i c rest
    | e :: rest ->
        union e;
        if counted && owner.(e) <> i then begin
          if total_stamp.(e) <> !kround then begin
            total_stamp.(e) <- !kround;
            total.(e) <- gcount.(e)
          end;
          total.(e) <- total.(e) + 1;
          grant kappa i (Int.max c total.(e)) rest
        end
        else grant kappa i c rest
  in
  let measure kappa =
    incr kround;
    let b = ref 0 and c = ref gmax in
    for i = 0 to Part.count parts - 1 do
      incr version;
      let gl = global.(i) in
      for j = 0 to Array.length gl - 1 do
        union gl.(j);
        owner.(gl.(j)) <- i
      done;
      c := grant kappa i !c steiner.Steiner.edges.(i);
      (* block components: distinct roots among the part's vertices *)
      let p = parts.Part.parts.(i) in
      let blocks = ref 0 in
      for j = 0 to Array.length p - 1 do
        let r = find p.(j) in
        if root_stamp.(r) <> !version then begin
          root_stamp.(r) <- !version;
          incr blocks
        end
      done;
      if !blocks > !b then b := !blocks
    done;
    let c = if counted then !c else closed_form kappa in
    { kappa; b = !b; c; q = (!b * height) + c }
  in
  let best = ref None in
  let curve = ref [] in
  Obs.Span.with_ span (fun () ->
      List.iter
        (fun kappa ->
          let p = measure kappa in
          curve := p :: !curve;
          match !best with
          | Some bp when bp.q <= p.q -> ()
          | _ -> best := Some p)
        kappas);
  let assigned =
    match !best with
    | None -> Array.map Array.to_list global
    | Some { kappa; _ } ->
        Obs.Span.with_ ~attrs:[ ("kappa", Obs.Sink.Int kappa) ] "generic.prune"
          (fun () ->
            Array.mapi
              (fun i es -> Array.fold_right List.cons global.(i) (List.filter (kept kappa i) es))
              steiner.Steiner.edges)
  in
  (Shortcut.make tree parts assigned, List.rev !curve)

let policy_tag = function Drop_all -> 0 | Keep_kappa -> 1

(* memoized on (policy, kappa list, tree, parts); the returned shortcut and
   curve are immutable *)
let m_construct :
    (policy * int list option * Spanning.tree * Part.t,
     Shortcut.t * frontier_point list)
    Memo.t =
  Memo.create ~name:"generic.construct" ~fp:(fun (policy, kappas, tree, parts) ->
      let h =
        Memo.Fingerprint.(
          empty
          |> int (policy_tag policy)
          |> int64 (Spanning.fingerprint tree)
          |> int64 (Part.fingerprint parts))
      in
      match kappas with
      | None -> Memo.Fingerprint.bool false h
      | Some ks -> Memo.Fingerprint.(h |> bool true |> int_list ks))

let construct_with_stats ?(policy = Keep_kappa) ?kappas tree parts =
  Memo.find_or_compute m_construct (policy, kappas, tree, parts) @@ fun () ->
  Obs.Span.with_ "generic.construct" @@ fun () ->
  sweep ~span:"generic.sweep" policy ~kappas
    ~global:(Array.make (Part.count parts) [])
    tree parts (Steiner.compute tree parts)

let construct ?policy ?kappas tree parts =
  fst (construct_with_stats ?policy ?kappas tree parts)

let frontier ?policy ?kappas tree parts =
  snd (construct_with_stats ?policy ?kappas tree parts)
