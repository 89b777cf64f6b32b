type params = {
  k : int;
  oversub : int;
  host_spec : Topology.link_spec;
  fabric_spec : Topology.link_spec;
}

let default_params ?(k = 4) ?(oversub = 4) () =
  {
    k;
    oversub;
    host_spec = Topology.default_link_spec;
    fabric_spec = Topology.default_link_spec;
  }

let validate p =
  if p.k < 2 || p.k mod 2 <> 0 then
    invalid_arg "Fattree: k must be even and >= 2";
  if p.oversub < 1 then invalid_arg "Fattree: oversub must be >= 1"

let hosts_per_edge p = p.k / 2 * p.oversub
let hosts_per_pod p = p.k / 2 * hosts_per_edge p
let host_count p = p.k * hosts_per_pod p

(* A host's pod, its edge switch within the pod, and its port on that
   edge: [position]'s components one at a time, so that the route
   oracle, which runs per fluid leg, allocates no tuple. *)
let pod_of p h = h / hosts_per_pod p
let edge_of p h = h mod hosts_per_pod p / hosts_per_edge p
let port_of p h = h mod hosts_per_pod p mod hosts_per_edge p

let position p addr =
  let h = Addr.to_int addr in
  (pod_of p h, edge_of p h, port_of p h)

let paths_between p a b =
  let a = Addr.to_int a and b = Addr.to_int b in
  let half = p.k / 2 in
  if a = b then 0
  else if pod_of p a = pod_of p b && edge_of p a = edge_of p b then 1
  else if pod_of p a = pod_of p b then half
  else half * half

let create ~sched p =
  validate p;
  let n_hosts = host_count p in
  let open Topology in
  let b = Builder.create sched in
  let half = p.k / 2 in
  let pods = p.k in
  let hpe = hosts_per_edge p in
  let hosts =
    Array.init n_hosts (fun i -> Host.create ~sched ~addr:(Addr.of_int i))
  in
  (* Switch ids are globally unique so ECMP salts differ per switch. *)
  let next_sw = ref 0 in
  let fresh_switch layer =
    let sw = Switch.create ~id:!next_sw ~layer in
    incr next_sw;
    sw
  in
  let edge = Array.init pods (fun _ -> Array.init half (fun _ -> fresh_switch Layer.Edge_layer)) in
  let agg = Array.init pods (fun _ -> Array.init half (fun _ -> fresh_switch Layer.Agg_layer)) in
  let core = Array.init (half * half) (fun _ -> fresh_switch Layer.Core_layer) in

  (* Host <-> edge links. The up links are retained for the route
     oracle; make_link call order (down before up, per host) is id
     assignment order and must not change. *)
  let host_up = Array.make n_hosts None in
  let edge_down = (* edge_down.(pod).(e).(i) : edge -> host i *)
    Array.init pods (fun pd ->
        Array.init half (fun e ->
            Array.init hpe (fun i ->
                let host_id = (pd * half + e) * hpe + i in
                let l = Builder.make_link b ~spec:p.host_spec ~layer:Layer.Edge_layer in
                Builder.to_host l hosts.(host_id);
                let up = Builder.make_link b ~spec:p.host_spec ~layer:Layer.Host_layer in
                Builder.to_switch up edge.(pd).(e);
                Host.add_nic hosts.(host_id) up;
                host_up.(host_id) <- Some up;
                l)))
  in
  (* Edge <-> agg links (within each pod, full bipartite). *)
  let edge_up = (* edge_up.(pod).(e).(a) : edge e -> agg a *)
    Array.init pods (fun pd ->
        Array.init half (fun e ->
            Array.init half (fun a ->
                let l = Builder.make_link b ~spec:p.fabric_spec ~layer:Layer.Edge_layer in
                Builder.to_switch l agg.(pd).(a);
                ignore e;
                l)))
  in
  let agg_down = (* agg_down.(pod).(a).(e) : agg a -> edge e *)
    Array.init pods (fun pd ->
        Array.init half (fun a ->
            Array.init half (fun e ->
                let l = Builder.make_link b ~spec:p.fabric_spec ~layer:Layer.Agg_layer in
                Builder.to_switch l edge.(pd).(e);
                ignore a;
                l)))
  in
  (* Agg <-> core links. Core c = a * half + m connects to agg a of
     every pod; agg (pd, a) uplink m goes to core a*half + m. *)
  let agg_up = (* agg_up.(pod).(a).(m) : agg -> core (a*half + m) *)
    Array.init pods (fun pd ->
        Array.init half (fun a ->
            Array.init half (fun m ->
                let l = Builder.make_link b ~spec:p.fabric_spec ~layer:Layer.Agg_layer in
                Builder.to_switch l core.((a * half) + m);
                ignore pd;
                l)))
  in
  let core_down = (* core_down.(c).(pod) : core -> agg (c / half) of pod *)
    Array.init (half * half) (fun c ->
        Array.init pods (fun pd ->
            let l = Builder.make_link b ~spec:p.fabric_spec ~layer:Layer.Core_layer in
            Builder.to_switch l agg.(pd).(c / half);
            l))
  in

  (* Routing. Each hop computes the destination's pod, edge and index
     inline ([position]'s arithmetic): a tuple per switch hop would
     allocate on every forwarded packet. *)
  let hpp = hosts_per_pod p in
  for pd = 0 to pods - 1 do
    for e = 0 to half - 1 do
      let sw = edge.(pd).(e) in
      let salt = Switch.id sw in
      Switch.set_route sw (fun pkt ->
          let h = Addr.to_int pkt.Packet.dst in
          let rem = h mod hpp in
          if h / hpp = pd && rem / hpe = e then edge_down.(pd).(e).(rem mod hpe)
          else edge_up.(pd).(e).(Ecmp.select pkt ~salt ~n:half))
    done;
    for a = 0 to half - 1 do
      let sw = agg.(pd).(a) in
      let salt = Switch.id sw in
      Switch.set_route sw (fun pkt ->
          let h = Addr.to_int pkt.Packet.dst in
          if h / hpp = pd then agg_down.(pd).(a).(h mod hpp / hpe)
          else agg_up.(pd).(a).(Ecmp.select pkt ~salt ~n:half))
    done
  done;
  Array.iteri
    (fun c sw ->
      Switch.set_route sw (fun pkt ->
          core_down.(c).(Addr.to_int pkt.Packet.dst / hpp)))
    core;

  let switches =
    Array.concat
      [ Array.concat (Array.to_list edge); Array.concat (Array.to_list agg); core ]
  in
  (* Static path enumeration mirroring the ECMP routing above: the
     per-hop next-link tables are deterministic given the (agg, core
     uplink) pair a hashed scatter would pick, so [choice] indexes
     that pair directly. *)
  let up h = match host_up.(h) with Some l -> Link.id l | None -> assert false in
  let ro_paths ~src ~dst = paths_between p (Addr.of_int src) (Addr.of_int dst) in
  let ro_path ~src ~dst ~choice =
    if src = dst then [||]
    else begin
      let spd = pod_of p src and se = edge_of p src in
      let dpd = pod_of p dst and de = edge_of p dst and di = port_of p dst in
      let down = Link.id edge_down.(dpd).(de).(di) in
      if spd = dpd && se = de then [| up src; down |]
      else if spd = dpd then begin
        let a = choice mod half in
        [|
          up src;
          Link.id edge_up.(spd).(se).(a);
          Link.id agg_down.(spd).(a).(de);
          down;
        |]
      end
      else begin
        let c = choice mod (half * half) in
        let a = c / half and m = c mod half in
        [|
          up src;
          Link.id edge_up.(spd).(se).(a);
          Link.id agg_up.(spd).(a).(m);
          Link.id core_down.((a * half) + m).(dpd);
          Link.id agg_down.(dpd).(a).(de);
          down;
        |]
      end
    end
  in
  {
    sched;
    name = Printf.sprintf "fattree-k%d-oversub%d" p.k p.oversub;
    hosts;
    switches;
    links = Builder.links b;
    path_count = (fun a bb -> paths_between p a bb);
    routes = Some { ro_paths; ro_path };
  }
