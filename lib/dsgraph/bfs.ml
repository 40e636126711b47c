let alive mask v =
  match mask with None -> true | Some m -> Mask.mem m v

let multi_distances ?mask g ~sources =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  let queue = Queue.create () in
  List.iter
    (fun s ->
      if alive mask s && dist.(s) = -1 then begin
        dist.(s) <- 0;
        Queue.add s queue
      end)
    sources;
  (* the per-edge loop runs straight over the CSR arrays: no closure
     call per edge in the all-pairs loops of the diameter checks *)
  let offsets = Graph.offsets g and targets = Graph.targets g in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    let du = dist.(u) + 1 in
    for i = offsets.{u} to offsets.{u + 1} - 1 do
      let v = targets.{i} in
      if dist.(v) = -1 && alive mask v then begin
        dist.(v) <- du;
        Queue.add v queue
      end
    done
  done;
  dist

let distances ?mask g ~source = multi_distances ?mask g ~sources:[ source ]

let parents ?mask g ~source =
  let n = Graph.n g in
  let parent =
    (Array.make n (-1) [@alloc_ok "the result, once per call"])
  in
  if alive mask source then begin
    parent.(source) <- source;
    let queue = (Array.make n 0 [@alloc_ok "queue, once per call"]) in
    queue.(0) <- source;
    let head = (ref 0 [@alloc_ok "two cursor cells per call, not per node"])
    and tail = (ref 1 [@alloc_ok "two cursor cells per call, not per node"]) in
    let offsets = Graph.offsets g and targets = Graph.targets g in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      for i = offsets.{u} to offsets.{u + 1} - 1 do
        let v = targets.{i} in
        if parent.(v) = -1 && alive mask v then begin
          parent.(v) <- u;
          queue.(!tail) <- v;
          incr tail
        end
      done
    done
  end;
  parent
[@@hot]

let ball ?mask g ~center ~radius =
  let dist = distances ?mask g ~source:center in
  let acc = ref [] in
  for v = Graph.n g - 1 downto 0 do
    if dist.(v) >= 0 && dist.(v) <= radius then acc := v :: !acc
  done;
  !acc

let layer_sizes ?mask g ~sources =
  let dist = multi_distances ?mask g ~sources in
  let maxd = Array.fold_left max 0 dist in
  let counts = Array.make (maxd + 1) 0 in
  Array.iter (fun d -> if d >= 0 then counts.(d) <- counts.(d) + 1) dist;
  (* cumulative *)
  for r = 1 to maxd do
    counts.(r) <- counts.(r) + counts.(r - 1)
  done;
  counts

let eccentricity ?mask g v =
  let dist = distances ?mask g ~source:v in
  Array.fold_left max 0 dist

let weak_diameter_of_set ?mask g set =
  match set with
  | [] | [ _ ] -> 0
  | _ ->
      let diam = ref 0 in
      let disconnected = ref false in
      List.iter
        (fun s ->
          let dist = distances ?mask g ~source:s in
          List.iter
            (fun v ->
              if dist.(v) = -1 then disconnected := true
              else if dist.(v) > !diam then diam := dist.(v))
            set)
        set;
      if !disconnected then -1 else !diam

(* Scale variants: the allocation-per-call BFS above is fine for one-off
   queries, but per-cluster loops at n = 10^6 need reusable buffers and
   label-confined traversals whose cost is the cluster's volume, not
   the whole graph. *)

let distances_into ?mask g ~source ~dist ~queue =
  if not (alive mask source) then 0
  else begin
    dist.(source) <- 0;
    queue.(0) <- source;
    let head = (ref 0 [@alloc_ok "two cursor cells per call, not per node"])
    and tail = (ref 1 [@alloc_ok "two cursor cells per call, not per node"]) in
    let offsets = Graph.offsets g and targets = Graph.targets g in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      let du = dist.(u) + 1 in
      for i = offsets.{u} to offsets.{u + 1} - 1 do
        let v = targets.{i} in
        if dist.(v) = -1 && alive mask v then begin
          dist.(v) <- du;
          queue.(!tail) <- v;
          incr tail
        end
      done
    done;
    !tail
  end
[@@hot]

type scratch = {
  mutable gen : int;
  stamp : int array;
  dist : int array;
  parent : int array;
  queue : int array;
}

let scratch n =
  {
    gen = 0;
    stamp = Array.make n (-1);
    dist = Array.make n 0;
    parent = Array.make n 0;
    queue = Array.make n 0;
  }

let reached s v = s.stamp.(v) = s.gen

let within s g ~label ~c ~source =
  s.gen <- s.gen + 1;
  if label.(source) <> c then 0
  else begin
    let gen = s.gen in
    let stamp = s.stamp and dist = s.dist and parent = s.parent
    and queue = s.queue in
    stamp.(source) <- gen;
    dist.(source) <- 0;
    parent.(source) <- source;
    queue.(0) <- source;
    let head = (ref 0 [@alloc_ok "two cursor cells per call, not per node"])
    and tail = (ref 1 [@alloc_ok "two cursor cells per call, not per node"]) in
    let offsets = Graph.offsets g and targets = Graph.targets g in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      let du = dist.(u) + 1 in
      for i = offsets.{u} to offsets.{u + 1} - 1 do
        let v = targets.{i} in
        if stamp.(v) <> gen && label.(v) = c then begin
          stamp.(v) <- gen;
          dist.(v) <- du;
          parent.(v) <- u;
          queue.(!tail) <- v;
          incr tail
        end
      done
    done;
    !tail
  end
[@@hot]

let diameter_of_set g set =
  match set with
  | [] | [ _ ] -> 0
  | _ ->
      (* one dist/queue pair for all k sources: each BFS resets exactly
         the cells it touched, and its last queued node is the farthest *)
      let n = Graph.n g in
      let mask = Mask.of_list n set in
      let size = Mask.count mask in
      let dist = Array.make n (-1) and queue = Array.make n 0 in
      let rec go diam = function
        | [] -> diam
        | s :: rest ->
            let k = distances_into ~mask g ~source:s ~dist ~queue in
            let ecc = dist.(queue.(k - 1)) in
            for i = 0 to k - 1 do
              dist.(queue.(i)) <- -1
            done;
            if k < size then -1 else go (max diam ecc) rest
      in
      go 0 set

let component_of ?mask g v =
  if not (alive mask v) then []
  else
    let dist = distances ?mask g ~source:v in
    let acc = ref [] in
    for u = Graph.n g - 1 downto 0 do
      if dist.(u) >= 0 then acc := u :: !acc
    done;
    !acc
