(* Reference implementations for the differential tests, kept as they
   were before aggregation moved to flat tables: the hashtable-per-node
   [minimum] (whose per-node send order the flat version must reproduce),
   the Borůvka loop on top of it with its polymorphic tuple compares,
   and the per-part [Part.check]; and the sequential MST kernels as they
   were before Borůvka moved to compact component ids ([Sequential_mst]:
   union-find [find]s per live edge, a closure sort of the forest, and a
   Kruskal that copies its sorted ids).  Test code only; nothing in lib/
   calls them. *)

module Graph = Graphlib.Graph
module Spanning = Graphlib.Spanning
module Traversal = Graphlib.Traversal
module Union_find = Graphlib.Union_find
module Network = Congest.Network
module Mst = Congest.Mst
module Part = Shortcuts.Part
module Sc = Shortcuts.Shortcut

type result = {
  stats : Network.stats;
  mins : (float * int) option array;
}

type node_state = {
  best : (int, float * int) Hashtbl.t;  (* part -> current min *)
  queues : (int, int Queue.t) Hashtbl.t;  (* neighbor -> pending part ids *)
  queued : (int * int, unit) Hashtbl.t;
}

let minimum ?max_rounds ?trace ?faults sc ~values =
  let tree = sc.Sc.tree in
  let g = tree.Graphlib.Spanning.graph in
  let n = Graph.n g in
  Obs.Span.with_
    ~attrs:[ ("n", Obs.Sink.Int n) ]
    "congest.aggregate.minimum"
  @@ fun () ->
  let parts = sc.Sc.parts in
  let part_of = parts.Part.part_of in
  (* by_part.(v) : part -> neighbors usable for that part (shortcut edges of
     the part plus the part's own induced edges); deduped while building so
     [improve] touches each usable neighbor once *)
  let by_part : (int, int list) Hashtbl.t array = Array.init n (fun _ -> Hashtbl.create 4) in
  let seen = Hashtbl.create 64 in
  let allow v w p =
    if not (Hashtbl.mem seen (v, w, p)) then begin
      Hashtbl.replace seen (v, w, p) ();
      let cur = Option.value (Hashtbl.find_opt by_part.(v) p) ~default:[] in
      Hashtbl.replace by_part.(v) p (w :: cur)
    end
  in
  Array.iteri
    (fun p edges ->
      Array.iter
        (fun e ->
          let u, v = Graph.edge g e in
          allow u v p;
          allow v u p)
        edges)
    sc.Sc.assigned;
  Graph.iter_edges g (fun _ u v ->
      let pu = part_of.(u) in
      if pu >= 0 && pu = part_of.(v) then begin
        allow u v pu;
        allow v u pu
      end);
  let enqueue st w p =
    if not (Hashtbl.mem st.queued (w, p)) then begin
      Hashtbl.replace st.queued (w, p) ();
      let q =
        match Hashtbl.find_opt st.queues w with
        | Some q -> q
        | None ->
            let q = Queue.create () in
            Hashtbl.replace st.queues w q;
            q
      in
      Queue.push p q
    end
  in
  let improve st v p value =
    let better =
      match Hashtbl.find_opt st.best p with None -> true | Some cur -> value < cur
    in
    if better then begin
      Hashtbl.replace st.best p value;
      match Hashtbl.find_opt by_part.(v) p with
      | Some nbrs -> List.iter (fun w -> enqueue st w p) nbrs
      | None -> ()
    end;
    better
  in
  let send_buf = [| 0; 0; 0; 0 |] in
  let algo =
    {
      Network.init =
        (fun _ v ->
          let st =
            {
              best = Hashtbl.create 4;
              queues = Hashtbl.create 4;
              queued = Hashtbl.create 4;
            }
          in
          let p = part_of.(v) in
          (match (p, values.(v)) with
          | p, Some value when p >= 0 -> ignore (improve st v p value)
          | _ -> ());
          st);
      step =
        (fun ctx st ->
          let v = Network.node ctx in
          (* receive *)
          for i = 0 to Network.inbox_size ctx - 1 do
            if Network.inbox_words ctx i <> 4 then
              invalid_arg "Aggregate: malformed payload";
            let p = Network.inbox_word ctx i 0 in
            let hi = Network.inbox_word ctx i 1 in
            let lo = Network.inbox_word ctx i 2 in
            let data = Network.inbox_word ctx i 3 in
            let bits =
              Int64.logor
                (Int64.shift_left (Int64.of_int hi) 32)
                (Int64.of_int (lo land 0xFFFFFFFF))
            in
            let key = Int64.float_of_bits bits in
            ignore (improve st v p (key, data))
          done;
          (* send: one pending part per neighbor *)
          Hashtbl.iter
            (fun w q ->
              if not (Queue.is_empty q) then begin
                let p = Queue.pop q in
                Hashtbl.remove st.queued (w, p);
                match Hashtbl.find_opt st.best p with
                | Some (key, data) ->
                    let bits = Int64.bits_of_float key in
                    let hi = Int64.to_int (Int64.shift_right_logical bits 32) in
                    let lo = Int64.to_int (Int64.logand bits 0xFFFFFFFFL) in
                    send_buf.(0) <- p;
                    send_buf.(1) <- hi;
                    send_buf.(2) <- lo;
                    send_buf.(3) <- data;
                    Network.send ctx w send_buf
                | None -> ()
              end)
            st.queues;
          st);
      finished =
        (fun st ->
          Hashtbl.fold (fun _ q acc -> acc && Queue.is_empty q) st.queues true);
    }
  in
  let states, stats = Network.run ?max_rounds ?trace ?faults g algo in
  let mins =
    Array.init n (fun v ->
        let p = part_of.(v) in
        if p < 0 then None else Hashtbl.find_opt states.(v).best p)
  in
  { stats; mins }

let verify sc ~values r =
  Congest.Aggregate.verify sc ~values
    { Congest.Aggregate.stats = r.stats; mins = r.mins }

let fragments_of uf g =
  let n = Graph.n g in
  let buckets = Hashtbl.create 16 in
  for v = n - 1 downto 0 do
    let r = Union_find.find uf v in
    Hashtbl.replace buckets r (v :: Option.value (Hashtbl.find_opt buckets r) ~default:[])
  done;
  Part.of_list g (Hashtbl.fold (fun _ l acc -> l :: acc) buckets [])

(* minimum-weight outgoing edge values per vertex, for the current fragments *)
let mwoe_values g w uf =
  Array.init (Graph.n g) (fun v ->
      let best = ref None in
      Graph.iter_adj g v (fun u e ->
          if not (Union_find.same uf v u) then
            match !best with
            | Some (bw, be) when (bw, be) <= (w.(e), e) -> ()
            | _ -> best := Some (w.(e), e));
      !best)

let merge_phase g w uf mins parts mst_edges =
  (* each fragment adopts the minimum (weight, edge) its members agreed on *)
  let nparts = Part.count parts in
  let chosen = Array.make nparts None in
  Array.iteri
    (fun v m ->
      let p = parts.Part.part_of.(v) in
      if p >= 0 then
        match (m, chosen.(p)) with
        | Some x, Some y when y <= x -> ()
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
      minimum ~max_rounds:max_rounds_per_phase ?trace ?faults sc
        ~values
    in
    if strict then begin
      if not result.stats.Network.converged then
        failwith "Mst.boruvka: aggregation did not converge";
      if not (verify sc ~values result) then
        failwith "Mst.boruvka: aggregation produced a wrong minimum"
    end;
    let cost = overhead * result.stats.Network.rounds in
    rounds := !rounds + cost;
    messages := !messages + (overhead * result.stats.Network.messages);
    phase_rounds := cost :: !phase_rounds;
    let before = Union_find.count uf in
    merge_phase g w uf result.mins parts mst_edges;
    (* under faults a phase can lose every candidate; a best-effort run
       stops instead of spinning (the partial forest is the degraded
       answer), a strict run cannot get here *)
    progress := Union_find.count uf < before
  done;
  let mst_edges = !mst_edges in
  {
    Mst.phases = !phases;
    rounds = !rounds;
    messages = !messages;
    mst_edges;
    mst_weight = Spanning.total_weight w mst_edges;
    phase_rounds = List.rev !phase_rounds;
  }

let part_check g (t : Part.t) =
  let n = Graph.n g in
  if Array.length t.part_of <> n then Error "part_of size mismatch"
  else begin
    let seen = Array.make n (-1) in
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
        if not (Traversal.is_connected_subset g (Array.to_list p)) then
          ok := Error "disconnected part")
      t.parts;
    !ok
  end

module Sequential_mst = struct
  module Sort = Graphlib.Sort

  let has_negative w m =
    let neg = ref false in
    for e = 0 to m - 1 do
      if w.(e) < 0.0 then neg := true
    done;
    !neg

  (* ascending (weight, id) edge ids.  Fast path: weights >= 0 map through
     [Sort.float_key] into unsigned-63 radix order, payloads are edge ids,
     and radix stability IS the id tie-break.  Rare negative weights fall
     back to a monomorphic comparison sort with the same order. *)
  let sorted_edge_ids g w =
    let m = Graph.m g in
    if has_negative w m then begin
      let ids = Array.init m (fun i -> i) in
      Array.sort
        (fun a b ->
          let c = Float.compare w.(a) w.(b) in
          if c <> 0 then c else Int.compare a b)
        ids;
      ids
    end
    else begin
      let keys = Sort.ints (max 1 m) and ids = Sort.ints (max 1 m) in
      for e = 0 to m - 1 do
        Bigarray.Array1.unsafe_set keys e (Sort.float_key w.(e));
        Bigarray.Array1.unsafe_set ids e e
      done;
      Sort.sort_pairs ~len:m keys ids;
      Array.init m (fun i -> Bigarray.Array1.unsafe_get ids i)
    end

  let kruskal g w =
    let ids = sorted_edge_ids g w in
    let uf = Union_find.create (Graph.n g) in
    let acc = ref [] in
    Array.iter
      (fun e ->
        let u, v = Graph.edge g e in
        if Union_find.union uf u v then acc := e :: !acc)
      ids;
    List.rev !acc

  (* Sort-free Boruvka over the flat edge list: each round scans the still-
     live edges once, records per-component minimum (weight, id) edges, then
     contracts them through the union-find.  The live list shrinks
     geometrically (internal edges are filtered in place during the scan),
     so total work is O(m alpha(n)) per round over a shrinking m — no
     global sort, which wins when the edge list no longer fits in cache. *)
  let boruvka g w =
    let n = Graph.n g and m = Graph.m g in
    if m = 0 then []
    else begin
      let uf = Union_find.create n in
      (* better e1 e2: e1 strictly precedes e2 in (weight, id) order *)
      let better e1 e2 = w.(e1) < w.(e2) || (w.(e1) = w.(e2) && e1 < e2) in
      let live = Array.init m (fun i -> i) in
      let live_len = ref m in
      let best = Array.make n (-1) in
      let touched = Array.make n 0 in
      let out = Array.make (min m (max 1 (n - 1))) (-1) in
      let out_len = ref 0 in
      let progress = ref true in
      while !live_len > 0 && !progress do
        let ntouched = ref 0 in
        let kept = ref 0 in
        for i = 0 to !live_len - 1 do
          let e = live.(i) in
          let ru = Union_find.find uf (Graph.edge_u g e) in
          let rv = Union_find.find uf (Graph.edge_v g e) in
          if ru <> rv then begin
            live.(!kept) <- e;
            incr kept;
            (if best.(ru) < 0 then begin
               touched.(!ntouched) <- ru;
               incr ntouched;
               best.(ru) <- e
             end
             else if better e best.(ru) then best.(ru) <- e);
            if best.(rv) < 0 then begin
              touched.(!ntouched) <- rv;
              incr ntouched;
              best.(rv) <- e
            end
            else if better e best.(rv) then best.(rv) <- e
          end
        done;
        live_len := !kept;
        progress := !ntouched > 0;
        for i = 0 to !ntouched - 1 do
          let r = touched.(i) in
          let e = best.(r) in
          best.(r) <- -1;
          (* a mutual-minimum edge is picked by both its components; the
             second union is a no-op *)
          if Union_find.union uf (Graph.edge_u g e) (Graph.edge_v g e) then begin
            out.(!out_len) <- e;
            incr out_len
          end
        done
      done;
      (* normalize to the same ascending (weight, id) order kruskal emits *)
      let res = Array.sub out 0 !out_len in
      Array.sort
        (fun a b ->
          let c = Float.compare w.(a) w.(b) in
          if c <> 0 then c else Int.compare a b)
        res;
      Array.to_list res
    end
end
