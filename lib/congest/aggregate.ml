module Graph = Graphlib.Graph
module Ba = Bigarray.Array1
module Part = Shortcuts.Part
module Sc = Shortcuts.Shortcut

type result = {
  stats : Network.stats;
  mins : (float * int) option array;
}

let lt (k : float) (d : int) (k' : float) (d' : int) =
  k < k' || (k = k' && d < d')

(* Part-wise minimum by flooding over per-call flat tables (DESIGN.md
   section 17).  A channel is a (node, part, neighbour) triple — node v may
   relay part p's minimum to w because vw is one of p's shortcut edges or
   one of p's induced edges.  Built once per call, in linear time:

   - slots: one per (node, part) pair, holding the best (key, data) seen;
     a node's slots are contiguous and ascending in part id, so a received
     part is found by binary search;
   - channels: per slot, in relay order (reverse first-occurrence order),
     each with a queued bit;
   - links: one per (node, neighbour) pair that carries a channel, each
     owning a FIFO ring of queued channel ids.  A channel is queued at most
     once, so a ring never holds more entries than its link has channels,
     which is the ring's capacity.

   Send order is observable — fault drop rolls, the synchronizer's latency
   draws and the trace's busiest-edge tie-break all follow it — and the
   recorded experiment outputs fix it: every node sends over its links in
   the order a per-node stdlib [Hashtbl] keyed by neighbour iterates them,
   a link being inserted when its first part is queued.  That is by bucket
   [Hashtbl.hash w land (b - 1)], the most recently inserted link first
   within a bucket, with [b] starting at 16 and doubling as soon as more
   than [2b] links are present.  [tbl] holds each node's present links in
   that order. *)
let minimum ?max_rounds ?trace ?faults sc ~values =
  let tree = sc.Sc.tree in
  let g = tree.Graphlib.Spanning.graph in
  let n = Graph.n g in
  Obs.Span.with_
    ~attrs:[ ("n", Obs.Sink.Int n) ]
    "congest.aggregate.minimum"
  @@ fun () ->
  let m = Graph.m g in
  let part_of = sc.Sc.parts.Part.part_of in
  let assigned = sc.Sc.assigned in
  let nparts = Part.count sc.Sc.parts in
  (* entries keyed by (node, part): one payload -1 entry per part member,
     so its own slot exists, then the directed channels of every
     (part, edge) grant in first-occurrence order — the part's shortcut
     edges (deduped by [Shortcut.make]), then its induced edges not
     already granted — with the channel's entry index as payload *)
  let total = Array.fold_left (fun acc a -> acc + Array.length a) 0 assigned in
  let cap = n + (2 * (total + m)) in
  let keys = Graphlib.Sort.ints cap and payload = Graphlib.Sort.ints cap in
  let len = ref 0 in
  let push v p x =
    Ba.unsafe_set keys !len ((v * nparts) + p);
    Ba.unsafe_set payload !len x;
    incr len
  in
  for v = 0 to n - 1 do
    if part_of.(v) >= 0 then push v part_of.(v) (-1)
  done;
  let entry_w = Array.make (cap - n) 0 in
  let nchan = ref 0 in
  let grant p e =
    let u = Graph.edge_u g e and v = Graph.edge_v g e in
    entry_w.(!nchan) <- v;
    push u p !nchan;
    entry_w.(!nchan + 1) <- u;
    push v p (!nchan + 1);
    nchan := !nchan + 2
  in
  let granted_own = Array.make m false in
  Array.iteri
    (fun p edges ->
      Array.iter
        (fun e ->
          grant p e;
          if part_of.(Graph.edge_u g e) = p && part_of.(Graph.edge_v g e) = p
          then granted_own.(e) <- true)
        edges)
    assigned;
  Graph.iter_edges g (fun e u v ->
      let pu = part_of.(u) in
      if pu >= 0 && pu = part_of.(v) && not granted_own.(e) then grant pu e);
  let len = !len and nchan = !nchan in
  Graphlib.Sort.sort_pairs ~len keys payload;
  (* slots in key order; each slot's channels renumbered in reverse entry
     order, the order [relay] walks them *)
  let slot_lo = Array.make (n + 1) 0 in
  let slot_part = Array.make len 0 in
  let ch_lo = Array.make (len + 1) 0 in
  let chan_w = Array.make nchan 0 in
  let chan_slot = Array.make nchan 0 in
  let nslots = ref 0 and first = ref 0 and nc = ref 0 in
  for v = 0 to n - 1 do
    slot_lo.(v) <- !nslots;
    while !first < len && Ba.unsafe_get keys !first < (v + 1) * nparts do
      let key = Ba.unsafe_get keys !first in
      let stop = ref !first in
      while !stop < len && Ba.unsafe_get keys !stop = key do
        incr stop
      done;
      let s = !nslots in
      slot_part.(s) <- key - (v * nparts);
      ch_lo.(s) <- !nc;
      for k = !stop - 1 downto !first do
        let x = Ba.unsafe_get payload k in
        if x >= 0 then begin
          chan_w.(!nc) <- entry_w.(x);
          chan_slot.(!nc) <- s;
          incr nc
        end
      done;
      first := !stop;
      incr nslots
    done
  done;
  let nslots = !nslots in
  slot_lo.(n) <- nslots;
  ch_lo.(nslots) <- nchan;
  (* links: a node's channels are contiguous, so one stamp per neighbour
     groups them; ring capacity = channels per link *)
  let link_lo = Array.make (n + 1) 0 in
  let chan_link = Array.make nchan 0 in
  let link_nbr = Array.make nchan 0 in
  let ring_lo = Array.make (nchan + 1) 0 in
  let seen_by = Array.make n (-1) and link_of = Array.make n 0 in
  let nlinks = ref 0 in
  for v = 0 to n - 1 do
    link_lo.(v) <- !nlinks;
    for c = ch_lo.(slot_lo.(v)) to ch_lo.(slot_lo.(v + 1)) - 1 do
      let w = chan_w.(c) in
      if seen_by.(w) <> v then begin
        seen_by.(w) <- v;
        link_of.(w) <- !nlinks;
        link_nbr.(!nlinks) <- w;
        incr nlinks
      end;
      let l = link_of.(w) in
      chan_link.(c) <- l;
      ring_lo.(l + 1) <- ring_lo.(l + 1) + 1
    done
  done;
  let nlinks = !nlinks in
  link_lo.(n) <- nlinks;
  for l = 1 to nlinks do
    ring_lo.(l) <- ring_lo.(l) + ring_lo.(l - 1)
  done;
  let link_hash = Array.init nlinks (fun l -> Hashtbl.hash link_nbr.(l)) in
  (* dynamic state *)
  let best_key = Array.make nslots 0.0 in
  let best_data = Array.make nslots 0 in
  let has_best = Array.make nslots false in
  let queued = Array.make nchan false in
  let ring = Array.make nchan 0 in
  let ring_head = Array.make nlinks 0 in
  let ring_len = Array.make nlinks 0 in
  let present = Array.make nlinks false in
  let tbl = Array.make nlinks 0 in
  let tbl_n = Array.make n 0 in
  let tbl_b = Array.make n 16 in
  let pending = Array.make n 0 in
  let find_slot v p =
    let lo = ref slot_lo.(v) and hi = ref slot_lo.(v + 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if slot_part.(mid) < p then lo := mid + 1 else hi := mid
    done;
    if !lo < slot_lo.(v + 1) && slot_part.(!lo) = p then !lo else -1
  in
  (* Hashtbl.replace of a new key: head of its bucket, then a resize when
     the table outgrows 2b — a resize keeps each bucket's order, so it is
     a stable partition on the new bucket bit *)
  let insert_link v l =
    present.(l) <- true;
    let lo = link_lo.(v) and k = tbl_n.(v) and b = tbl_b.(v) in
    let h = link_hash.(l) land (b - 1) in
    let pos = ref lo in
    while !pos < lo + k && link_hash.(tbl.(!pos)) land (b - 1) < h do
      incr pos
    done;
    Array.blit tbl !pos tbl (!pos + 1) (lo + k - !pos);
    tbl.(!pos) <- l;
    let k = k + 1 in
    tbl_n.(v) <- k;
    if k > 2 * b then begin
      let high = Array.make k 0 and nh = ref 0 and nl = ref lo in
      for i = lo to lo + k - 1 do
        let x = tbl.(i) in
        if link_hash.(x) land b = 0 then begin
          tbl.(!nl) <- x;
          incr nl
        end
        else begin
          high.(!nh) <- x;
          incr nh
        end
      done;
      Array.blit high 0 tbl !nl !nh;
      tbl_b.(v) <- 2 * b
    end
  in
  let enqueue v c =
    if not queued.(c) then begin
      queued.(c) <- true;
      pending.(v) <- pending.(v) + 1;
      let l = chan_link.(c) in
      if not present.(l) then insert_link v l;
      let size = ring_lo.(l + 1) - ring_lo.(l) in
      let t = ring_head.(l) + ring_len.(l) in
      ring.(ring_lo.(l) + if t >= size then t - size else t) <- c;
      ring_len.(l) <- ring_len.(l) + 1
    end
  in
  (* a slot improved: queue its part on every channel, in relay order *)
  let relay v s =
    for c = ch_lo.(s) to ch_lo.(s + 1) - 1 do
      enqueue v c
    done
  in
  let[@inline] improve v s key data =
    if (not has_best.(s)) || lt key data best_key.(s) best_data.(s) then begin
      has_best.(s) <- true;
      best_key.(s) <- key;
      best_data.(s) <- data;
      relay v s
    end
  in
  let send_buf = [| 0; 0; 0; 0 |] in
  let algo =
    {
      Network.init =
        (fun _ v ->
          let p = part_of.(v) in
          (match values.(v) with
          | Some (key, data) when p >= 0 -> improve v (find_slot v p) key data
          | _ -> ());
          v);
      step =
        (fun ctx v ->
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
            let s = find_slot v p in
            if s >= 0 then improve v s (Int64.float_of_bits bits) data
          done;
          (* send: one pending part per link, in table order *)
          let lo = link_lo.(v) in
          for i = lo to lo + tbl_n.(v) - 1 do
            let l = tbl.(i) in
            let len = ring_len.(l) in
            if len > 0 then begin
              let h = ring_head.(l) in
              let c = ring.(ring_lo.(l) + h) in
              let next = h + 1 in
              ring_head.(l) <-
                (if next = ring_lo.(l + 1) - ring_lo.(l) then 0 else next);
              ring_len.(l) <- len - 1;
              queued.(c) <- false;
              pending.(v) <- pending.(v) - 1;
              let s = chan_slot.(c) in
              let bits = Int64.bits_of_float best_key.(s) in
              send_buf.(0) <- slot_part.(s);
              send_buf.(1) <- Int64.to_int (Int64.shift_right_logical bits 32);
              send_buf.(2) <- Int64.to_int (Int64.logand bits 0xFFFFFFFFL);
              send_buf.(3) <- best_data.(s);
              Network.send ctx link_nbr.(l) send_buf
            end
          done;
          v);
      finished = (fun v -> pending.(v) = 0);
    }
  in
  let _, stats = Network.run ?max_rounds ?trace ?faults g algo in
  let mins =
    Array.init n (fun v ->
        let p = part_of.(v) in
        if p < 0 then None
        else
          let s = find_slot v p in
          if not has_best.(s) then None
          else Some (best_key.(s), best_data.(s)))
  in
  { stats; mins }

let true_minimum parts ~values =
  let n = Array.length values in
  let nparts = Part.count parts in
  let best = Array.make nparts None in
  Array.iteri
    (fun v value ->
      let p = parts.Part.part_of.(v) in
      if p >= 0 then
        match (value, best.(p)) with
        | Some (k, d), Some (k', d') when not (lt k d k' d') -> ()
        | Some x, _ -> best.(p) <- Some x
        | None, _ -> ())
    values;
  Array.init n (fun v ->
      let p = parts.Part.part_of.(v) in
      if p < 0 then None else best.(p))

let verify sc ~values result =
  let expected = true_minimum sc.Sc.parts ~values in
  let ok = ref true in
  Array.iteri
    (fun v e ->
      match (e, result.mins.(v)) with
      | Some (kx, dx), Some (ky, dy) when kx = ky && dx = dy -> ()
      | None, _ -> ()
      | _ -> ok := false)
    expected;
  !ok

let rounds_for_parts ?max_rounds ?trace sc ~seed =
  let st = Faults.Rng.algo seed in
  let g = sc.Sc.tree.Graphlib.Spanning.graph in
  let values =
    Array.init (Graph.n g) (fun v ->
        if sc.Sc.parts.Part.part_of.(v) >= 0 then
          Some (Random.State.float st 1.0, v)
        else None)
  in
  let r = minimum ?max_rounds ?trace sc ~values in
  r.stats.Network.rounds

(* ---- non-idempotent aggregates: SUM via convergecast/broadcast ---- *)

type sum_result = {
  rounds : int;
  sums : float option array;
}

(* spanning tree of one part's communication graph G[P_i] + H_i *)
let part_tree g parts assigned i =
  let members = parts.Part.parts.(i) in
  let adj = Hashtbl.create 64 in
  let add u v =
    Hashtbl.replace adj u (v :: Option.value (Hashtbl.find_opt adj u) ~default:[]);
    Hashtbl.replace adj v (u :: Option.value (Hashtbl.find_opt adj v) ~default:[])
  in
  (* the part's own induced edges *)
  Array.iter
    (fun v ->
      Graph.iter_adj g v (fun u _ ->
          if parts.Part.part_of.(u) = i && u > v then add u v))
    members;
  (* shortcut edges *)
  Array.iter
    (fun e ->
      let u, v = Graph.edge g e in
      add u v)
    assigned;
  let root = members.(0) in
  let parent = Hashtbl.create 64 in
  Hashtbl.replace parent root (-1);
  let q = Queue.create () in
  Queue.push root q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun u ->
        if not (Hashtbl.mem parent u) then begin
          Hashtbl.replace parent u v;
          Queue.push u q
        end)
      (Option.value (Hashtbl.find_opt adj v) ~default:[])
  done;
  parent

(* schedule a set of messages over shared directed physical edges: message
   (key) travels edge (src, dst) once all of deps.(key) are delivered; each
   directed edge delivers one ready message per round, FIFO. Returns the
   makespan. [messages]: key -> (src, dst, dependencies). *)
let schedule messages =
  let deps_left = Hashtbl.create 256 in
  let dependants = Hashtbl.create 256 in
  let ready : ((int * int), (int * int) Queue.t) Hashtbl.t = Hashtbl.create 256 in
  let push_ready key (src, dst) =
    let q =
      match Hashtbl.find_opt ready (src, dst) with
      | Some q -> q
      | None ->
          let q = Queue.create () in
          Hashtbl.replace ready (src, dst) q;
          q
    in
    Queue.push key q
  in
  let pending = ref 0 in
  Hashtbl.iter
    (fun key (src, dst, deps) ->
      incr pending;
      match List.filter (Hashtbl.mem messages) deps with
      | [] -> push_ready key (src, dst)
      | live ->
          Hashtbl.replace deps_left key (List.length live);
          List.iter
            (fun d ->
              Hashtbl.replace dependants d
                (key :: Option.value (Hashtbl.find_opt dependants d) ~default:[]))
            live)
    messages;
  let rounds = ref 0 in
  while !pending > 0 do
    incr rounds;
    if !rounds > 1_000_000 then failwith "Aggregate.schedule: stuck";
    let delivered = ref [] in
    Hashtbl.iter
      (fun _ q -> if not (Queue.is_empty q) then delivered := Queue.pop q :: !delivered)
      ready;
    List.iter
      (fun key ->
        decr pending;
        List.iter
          (fun k ->
            match Hashtbl.find_opt deps_left k with
            | Some 1 ->
                Hashtbl.remove deps_left k;
                let src, dst, _ = Hashtbl.find messages k in
                push_ready k (src, dst)
            | Some d -> Hashtbl.replace deps_left k (d - 1)
            | None -> ())
          (Option.value (Hashtbl.find_opt dependants key) ~default:[]))
      !delivered
  done;
  !rounds

let sum sc ~values =
  let tree = sc.Sc.tree in
  let g = tree.Graphlib.Spanning.graph in
  let n = Graph.n g in
  Obs.Span.with_ ~attrs:[ ("n", Obs.Sink.Int n) ] "congest.aggregate.sum"
  @@ fun () ->
  let parts = sc.Sc.parts in
  let nparts = Part.count parts in
  let ptrees = Array.init nparts (fun i -> part_tree g parts sc.Sc.assigned.(i) i) in
  (* convergecast: message (i, v) for every non-root node v of part i's tree,
     travelling v -> parent, depending on v's children messages *)
  let children = Array.map (fun pt ->
      let kids = Hashtbl.create 32 in
      Hashtbl.iter
        (fun v p ->
          if p >= 0 then
            Hashtbl.replace kids p (v :: Option.value (Hashtbl.find_opt kids p) ~default:[]))
        pt;
      kids)
      ptrees
  in
  let up = Hashtbl.create 256 in
  Array.iteri
    (fun i pt ->
      Hashtbl.iter
        (fun v p ->
          if p >= 0 then
            let deps =
              Option.value (Hashtbl.find_opt children.(i) v) ~default:[]
              |> List.map (fun c -> (i, c))
            in
            Hashtbl.replace up (i, v) (v, p, deps))
        pt)
    ptrees;
  let up_rounds = schedule up in
  (* broadcast: message (i, v) for every non-root v, parent -> v, depending on
     the parent's broadcast message (roots' children depend on nothing) *)
  let down = Hashtbl.create 256 in
  Array.iteri
    (fun i pt ->
      Hashtbl.iter
        (fun v p ->
          if p >= 0 then begin
            let gp = Hashtbl.find pt p in
            let deps = if gp >= 0 then [ (i, p) ] else [] in
            Hashtbl.replace down (i, v) (p, v, deps)
          end)
        pt)
    ptrees;
  let down_rounds = schedule down in
  (* the sums themselves, computed exactly (the schedule above establishes
     the cost; values ride along the same messages) *)
  let totals = Array.make nparts 0.0 in
  Array.iteri
    (fun v value ->
      let p = parts.Part.part_of.(v) in
      match (p, value) with
      | p, Some x when p >= 0 -> totals.(p) <- totals.(p) +. x
      | _ -> ())
    values;
  let sums =
    Array.init n (fun v ->
        let p = parts.Part.part_of.(v) in
        if p < 0 then None else Some totals.(p))
  in
  { rounds = up_rounds + down_rounds; sums }

let verify_sum sc ~values result =
  let parts = sc.Sc.parts in
  let nparts = Part.count parts in
  let totals = Array.make nparts 0.0 in
  Array.iteri
    (fun v value ->
      let p = parts.Part.part_of.(v) in
      match (p, value) with
      | p, Some x when p >= 0 -> totals.(p) <- totals.(p) +. x
      | _ -> ())
    values;
  let ok = ref true in
  Array.iteri
    (fun v s ->
      let p = parts.Part.part_of.(v) in
      match (p, s) with
      | p, Some s when p >= 0 -> if abs_float (s -. totals.(p)) > 1e-6 then ok := false
      | p, None when p >= 0 -> ok := false
      | _ -> ())
    result.sums;
  !ok
