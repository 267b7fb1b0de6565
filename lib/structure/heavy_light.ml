type t = {
  parent : int array;
  depth : int array;
  head : int array;
  chain_of : int array;
  chains : int array array;
}

let create ~parent ~root ~n =
  Obs.Span.with_ ~attrs:[ ("n", Obs.Sink.Int n) ] "heavy_light.create"
  @@ fun () ->
  (* children lists and subtree sizes *)
  let kids = Array.make n [] in
  Array.iteri (fun v p -> if p >= 0 then kids.(p) <- v :: kids.(p)) parent;
  let depth = Array.make n 0 in
  let size = Array.make n 1 in
  (* iterative DFS for order *)
  let order = Array.make n root in
  let top = ref 0 in
  let stack = ref [ root ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | v :: rest ->
        stack := rest;
        order.(!top) <- v;
        incr top;
        List.iter
          (fun c ->
            depth.(c) <- depth.(v) + 1;
            stack := c :: !stack)
          kids.(v)
  done;
  for i = n - 1 downto 0 do
    let v = order.(i) in
    if parent.(v) >= 0 then size.(parent.(v)) <- size.(parent.(v)) + size.(v)
  done;
  (* heavy child per vertex *)
  let heavy = Array.make n (-1) in
  for v = 0 to n - 1 do
    let best = ref (-1) and bs = ref 0 in
    List.iter
      (fun c ->
        if size.(c) > !bs then begin
          bs := size.(c);
          best := c
        end)
      kids.(v);
    heavy.(v) <- !best
  done;
  let head = Array.make n (-1) in
  let chain_of = Array.make n (-1) in
  let chain_list = ref [] in
  let nchains = ref 0 in
  (* walk vertices in dfs order; start a chain at every vertex that is not the
     heavy child of its parent *)
  for i = 0 to n - 1 do
    let v = order.(i) in
    let is_chain_start = parent.(v) < 0 || heavy.(parent.(v)) <> v in
    if is_chain_start then begin
      (* collect the chain downward through heavy children *)
      let members = ref [] in
      let u = ref v in
      while !u >= 0 do
        members := !u :: !members;
        head.(!u) <- v;
        chain_of.(!u) <- !nchains;
        u := heavy.(!u)
      done;
      chain_list := Array.of_list (List.rev !members) :: !chain_list;
      incr nchains
    end
  done;
  let chains = Array.of_list (List.rev !chain_list) in
  { parent; depth; head; chain_of; chains }

let chain_changes t v =
  let rec loop v acc =
    let h = t.head.(v) in
    if t.parent.(h) < 0 then acc else loop t.parent.(h) (acc + 1)
  in
  loop v 0
