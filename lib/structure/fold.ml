type folded = {
  groups : int list array;
  fparent : int array;
  group_of : int array;
}

let tree_depth parent =
  let n = Array.length parent in
  let d = Array.make n (-1) in
  let rec dep i =
    if d.(i) >= 0 then d.(i)
    else begin
      let v = if parent.(i) < 0 then 0 else dep parent.(i) + 1 in
      d.(i) <- v;
      v
    end
  in
  let best = ref 0 in
  for i = 0 to n - 1 do
    best := max !best (dep i)
  done;
  !best

let trivial ~parent =
  let n = Array.length parent in
  {
    groups = Array.init n (fun i -> [ i ]);
    fparent = Array.copy parent;
    group_of = Array.init n (fun i -> i);
  }

let fold ~parent =
  let n = Array.length parent in
  Obs.Span.with_ ~attrs:[ ("n", Obs.Sink.Int n) ] "fold.fold" @@ fun () ->
  if n = 0 then { groups = [||]; fparent = [||]; group_of = [||] }
  else begin
    let root = ref (-1) in
    Array.iteri (fun i p -> if p < 0 then root := i) parent;
    let hld = Heavy_light.create ~parent ~root:!root ~n in
    let groups = ref [] in
    let ngroups = ref 0 in
    let fparent_rev = ref [] in
    let group_of = Array.make n (-1) in
    let new_group members fp =
      let id = !ngroups in
      incr ngroups;
      groups := members :: !groups;
      fparent_rev := fp :: !fparent_rev;
      List.iter (fun b -> if group_of.(b) < 0 then group_of.(b) <- id) members;
      id
    in
    (* fold one chain (array of bags, top-down); returns the folded root id.
       fp = folded parent for the root group of this interval *)
    let rec fold_interval (chain : int array) lo hi fp =
      if lo > hi then -1
      else begin
        let mid = (lo + hi) / 2 in
        let members =
          List.sort_uniq Int.compare [ chain.(lo); chain.(mid); chain.(hi) ]
        in
        let gid = new_group members fp in
        ignore (fold_interval chain (lo + 1) (mid - 1) gid);
        ignore (fold_interval chain (mid + 1) (hi - 1) gid);
        gid
      end
    in
    (* chains are produced in DFS order of their heads, so a chain's parent
       bag is always folded before the chain itself *)
    Array.iter
      (fun chain ->
        let head = chain.(0) in
        let fp = if parent.(head) < 0 then -1 else group_of.(parent.(head)) in
        ignore (fold_interval chain 0 (Array.length chain - 1) fp))
      hld.Heavy_light.chains;
    {
      groups = Array.of_list (List.rev !groups);
      fparent = Array.of_list (List.rev !fparent_rev);
      group_of;
    }
  end

let depth f = tree_depth f.fparent
